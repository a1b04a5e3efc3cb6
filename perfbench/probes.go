package main

import (
	"runtime"
	"time"

	"repro/internal/cab"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

// Sinks keep probed results alive so the compiler cannot drop the calls.
var (
	sinkSpace *mem.AddrSpace
	sinkSum   uint32
)

// batch prepares n operations and returns the timed part and an optional
// clean-up that runs after timing.
type batch func(n int) (run, cleanup func())

// measure sizes a batch to run for about batchTarget, then times five
// batches and returns the median wall ns and heap allocations per
// operation.
func measure(b batch) (nsPerOp, allocsPerOp float64) {
	const batchTarget = 20 * time.Millisecond
	timed := func(n int) (time.Duration, uint64) {
		run, cleanup := b(n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if cleanup != nil {
			cleanup()
		}
		return d, m1.Mallocs - m0.Mallocs
	}
	n := 1
	for {
		d, _ := timed(n)
		if d >= batchTarget || n >= 1<<24 {
			break
		}
		if d < batchTarget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var ns, allocs []float64
	for i := 0; i < 5; i++ {
		d, a := timed(n)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(a)/float64(n))
	}
	return median(ns), median(allocs)
}

// probe is one layer probe: it fills its metrics into out.
type probe func(out map[string]metric)

// runProbes calls each layer's public functions directly, at the shapes
// the workloads use, and returns the per-layer probe metrics.
func runProbes() map[string]metric {
	out := map[string]metric{}
	for _, p := range []probe{probeProcSwitch, probeEvents, probeNewSpace, probeChecksum,
		probeCopyRange, probeCAB, probeHIPPISend, probeAddHost} {
		p(out)
	}
	return out
}

// probeProcSwitch: one proc sleeping one tick at a time — every Sleep is
// a hand-off from the proc to the engine and back.
func probeProcSwitch(out map[string]metric) {
	ns, allocs := measure(func(n int) (func(), func()) {
		e := sim.NewEngine(1)
		e.Go("spin", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		return e.Run, nil
	})
	out["sim.proc_switch_ns"] = metric{ns, "ns"}
	out["sim.proc_switch_allocs"] = metric{allocs, "allocs/op"}
}

// probeEvents: schedule and dispatch with 4096 events pending; each
// dispatched event schedules its successor up to 1000 ns ahead.
func probeEvents(out map[string]metric) {
	const pending = 4096
	ns, allocs := measure(func(n int) (func(), func()) {
		e := sim.NewEngine(1)
		x := uint64(88172645463325252)
		var fire func()
		fire = func() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e.After(units.Time(1+x%1000), fire)
		}
		for i := 0; i < pending; i++ {
			e.After(units.Time(i%1000), fire)
		}
		return func() {
			for i := 0; i < n; i++ {
				e.Step()
			}
		}, nil
	})
	out["sim.event_ns"] = metric{ns, "ns"}
	out["sim.event_allocs"] = metric{allocs, "allocs/op"}
}

// probeNewSpace: a 16 MB simulated address space (ttcp's per-side size)
// on a heap that recycles the previous ones.
func probeNewSpace(out map[string]metric) {
	const size = 16 * units.MB
	ns, _ := measure(func(n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				sinkSpace = mem.NewAddrSpace("probe", size, 8*units.KB)
			}
		}, func() { sinkSpace = nil }
	})
	out["mem.new_space_ns_per_mb"] = metric{ns / float64(size/units.MB), "ns/MB"}
}

// probeChecksum: the software Internet checksum over a 32 KB segment and
// a 4 KB page.
func probeChecksum(out map[string]metric) {
	for _, c := range []struct {
		name string
		size int
	}{{"checksum.sum_mb_per_s", 32 << 10}, {"checksum.sum_4k_mb_per_s", 4 << 10}} {
		buf := make([]byte, c.size)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		ns, _ := measure(func(n int) (func(), func()) {
			return func() {
				for i := 0; i < n; i++ {
					sinkSum += checksum.Sum(buf)
				}
			}, nil
		})
		out[c.name] = metric{float64(c.size) / ns * 1e3, "MB/s"}
	}
}

// probeCopyRange: tcp_output's symbolic cut of half a 16-mbuf send
// buffer, once over 8 KB clusters (the unmodified stack) and once over
// M_UIO descriptors of one user buffer (the single-copy stack).
func probeCopyRange(out map[string]metric) {
	var clusters, uios *mbuf.Mbuf
	space := mem.NewAddrSpace("probe", 32*mbuf.MCLBYTES, 8*units.KB)
	u := mem.NewUIO(space.Alloc(16*mbuf.MCLBYTES, 8))
	for i := 0; i < 16; i++ {
		clusters = mbuf.Cat(clusters, mbuf.NewCluster(make([]byte, mbuf.MCLBYTES)))
		uios = mbuf.Cat(uios, mbuf.NewUIO(u, units.Size(i)*mbuf.MCLBYTES, mbuf.MCLBYTES, nil))
	}
	cut := func(chain *mbuf.Mbuf) batch {
		total := mbuf.ChainLen(chain)
		return func(n int) (func(), func()) {
			return func() {
				for i := 0; i < n; i++ {
					mbuf.FreeChain(mbuf.CopyRange(chain, total/4, total/2))
				}
			}, nil
		}
	}
	ns, allocs := measure(cut(clusters))
	out["mbuf.copy_range_ns"] = metric{ns, "ns"}
	out["mbuf.copy_range_allocs"] = metric{allocs, "allocs/op"}
	ns, _ = measure(cut(uios))
	out["mbuf.copy_range_uio_ns"] = metric{ns, "ns"}
}

// probeCAB: a lone adaptor — one 32 KB transmit SDMA from host memory
// with the checksum engine on (header gathered first, as the driver
// does), and one packet allocation and free.
func probeCAB(out map[string]metric) {
	const hdr, body = 80, 32 << 10
	e := sim.NewEngine(1)
	c := cab.New(e, cost.Alpha400(), hippi.NewNetwork(e, hippi.LineRate, 5*units.Microsecond), 1, cab.DefaultConfig())
	defer e.KillAll()
	pk, ok := c.AllocPacket(hdr + body)
	if !ok {
		panic("perfbench: lone adaptor has no memory for one packet")
	}
	src := make([]byte, hdr+body)
	for i := range src {
		src[i] = byte(i)
	}
	gather := [][]byte{src[:hdr], src[hdr:]}
	ns, allocs := measure(func(n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				c.SDMA(&cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: gather, Csum: true, CsumOff: 56, CsumSkip: hdr})
				e.Run()
			}
		}, nil
	})
	pk.Free()
	out["cab.sdma_ns_per_kb"] = metric{ns / (body >> 10), "ns/KB"}
	out["cab.sdma_allocs"] = metric{allocs, "allocs/op"}

	ns, allocs = measure(func(n int) (func(), func()) {
		return func() {
			for i := 0; i < n; i++ {
				p, _ := c.AllocPacket(body)
				p.Free()
			}
		}, nil
	})
	out["cab.alloc_packet_ns"] = metric{ns, "ns"}
	out["cab.alloc_packet_allocs"] = metric{allocs, "allocs/op"}
}

// probeHIPPISend: back-to-back 32 KB frames through the switch, draining
// the engine every 256 frames.
func probeHIPPISend(out map[string]metric) {
	frame := make([]byte, 32<<10)
	ns, allocs := measure(func(n int) (func(), func()) {
		e := sim.NewEngine(1)
		net := hippi.NewNetwork(e, hippi.LineRate, 5*units.Microsecond)
		net.Attach(1, func(hippi.Frame) {})
		net.Attach(2, func(hippi.Frame) {})
		return func() {
			for i := 0; i < n; i++ {
				net.Send(1, 2, frame, nil)
				if i%256 == 255 {
					e.Run()
				}
			}
			e.Run()
		}, nil
	})
	out["hippi.send_ns"] = metric{ns, "ns"}
	out["hippi.send_allocs"] = metric{allocs, "allocs/op"}
}

// probeAddHost: assembling one single-copy host (kernel, VM, stack,
// adaptor, driver) on a testbed.
func probeAddHost(out map[string]metric) {
	ns, _ := measure(func(n int) (func(), func()) {
		tb := core.NewTestbed(1)
		return func() {
				for i := 0; i < n; i++ {
					tb.AddHost(core.HostConfig{Name: "H", Addr: wire.Addr(0x0b000001 + i), Mach: cost.Alpha400(),
						Mode: socket.ModeSingleCopy, CABNode: hippi.NodeID(i + 1)})
				}
			}, func() {
				tb.Eng.Run()
				tb.Eng.KillAll()
			}
	})
	out["core.add_host_ns"] = metric{ns, "ns"}
}
