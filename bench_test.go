// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks of the hot data structures. Each
// figure benchmark runs a complete simulated ttcp transfer and reports the
// virtual-time results (throughput, utilization, efficiency) as custom
// metrics; b.N controls repetition only — the simulation is deterministic,
// so the metrics are stable.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/hippi"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/taxonomy"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
)

// benchSizes is a compact read/write-size axis for the figure benchmarks.
var benchSizes = []units.Size{4 * units.KB, 32 * units.KB, 256 * units.KB}

// runStack executes one transfer and reports the figure metrics.
func runStack(b *testing.B, mach func() *cost.Machine, mode socket.Mode, rw units.Size) {
	b.Helper()
	var res ttcp.Result
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(int64(42 + i))
		ha := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: mach(), Mode: mode, CABNode: 1})
		hb := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: mach(), Mode: mode, CABNode: 2})
		tb.RouteCAB(ha, hb)
		res = ttcp.Run(tb, ha, hb, ttcp.Params{
			Total: 8 * units.MB, RWSize: rw,
			WithUtil: true, WithBackground: true,
		})
	}
	b.ReportMetric(res.Throughput.Mbit(), "vMb/s")
	b.ReportMetric(res.Snd.Utilization, "util")
	b.ReportMetric(res.Snd.Efficiency.Mbit(), "eff-Mb/s")
}

// runRaw executes one raw-HIPPI transfer.
func runRaw(b *testing.B, mach func() *cost.Machine, rw units.Size) {
	b.Helper()
	var res ttcp.Result
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(int64(42 + i))
		ha := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: mach(), CABNode: 1, NoDriver: true})
		hb := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: mach(), CABNode: 2, NoDriver: true})
		res = ttcp.RunRaw(tb, ha, hb, ttcp.Params{
			Total: 8 * units.MB, RWSize: rw, WithUtil: true,
		})
	}
	b.ReportMetric(res.Throughput.Mbit(), "vMb/s")
}

// BenchmarkFigure5 regenerates the Figure 5 series (Alpha 3000/400):
// throughput, utilization, and efficiency versus read/write size for the
// unmodified stack, the single-copy stack, and raw HIPPI.
func BenchmarkFigure5(b *testing.B) {
	for _, rw := range benchSizes {
		b.Run(fmt.Sprintf("Unmodified/%v", rw), func(b *testing.B) {
			runStack(b, cost.Alpha400, socket.ModeUnmodified, rw)
		})
		b.Run(fmt.Sprintf("Modified/%v", rw), func(b *testing.B) {
			runStack(b, cost.Alpha400, socket.ModeSingleCopy, rw)
		})
		b.Run(fmt.Sprintf("RawHIPPI/%v", rw), func(b *testing.B) {
			runRaw(b, cost.Alpha400, rw)
		})
	}
}

// BenchmarkFigure6 regenerates the Figure 6 series (Alpha 3000/300LX).
func BenchmarkFigure6(b *testing.B) {
	for _, rw := range benchSizes {
		b.Run(fmt.Sprintf("Unmodified/%v", rw), func(b *testing.B) {
			runStack(b, cost.Alpha300, socket.ModeUnmodified, rw)
		})
		b.Run(fmt.Sprintf("Modified/%v", rw), func(b *testing.B) {
			runStack(b, cost.Alpha300, socket.ModeSingleCopy, rw)
		})
		b.Run(fmt.Sprintf("RawHIPPI/%v", rw), func(b *testing.B) {
			runRaw(b, cost.Alpha300, rw)
		})
	}
}

// BenchmarkTable1 derives the complete host-interface taxonomy.
func BenchmarkTable1(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		cells := taxonomy.All()
		n = len(cells)
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkTable2 measures the VM operation costs on the simulated host
// and reports the fitted per-page pin cost (paper: 29 µs/page).
func BenchmarkTable2(b *testing.B) {
	var rows []exp.VMCostRow
	for i := 0; i < b.N; i++ {
		rows = exp.MeasureTable2()
	}
	b.ReportMetric(rows[0].Base, "pin-base-us")
	b.ReportMetric(rows[0].PerPage, "pin-per-page-us")
}

// BenchmarkAnalysis evaluates the Section 7.3 analytic model and reports
// the headline estimates (paper: ≈180 and ≈490 Mb/s).
func BenchmarkAnalysis(b *testing.B) {
	var rows []analysis.Estimate
	for i := 0; i < b.N; i++ {
		rows = analysis.PaperTable()
	}
	b.ReportMetric(rows[0].Efficiency.Mbit(), "unmod-Mb/s")
	b.ReportMetric(rows[1].Efficiency.Mbit(), "single-Mb/s")
}

// BenchmarkHOL runs the Section 2.1 head-of-line-blocking study and
// reports both utilizations (paper: FIFO ≤ 58%).
func BenchmarkHOL(b *testing.B) {
	var r exp.HOLResult
	for i := 0; i < b.N; i++ {
		r = exp.RunHOL(32, 5000, int64(17+i))
	}
	b.ReportMetric(r.FIFOUtilization, "fifo-util")
	b.ReportMetric(r.ChannelsUtilization, "voq-util")
}

// BenchmarkWindowSweep regenerates the Section 7.2 window observation.
func BenchmarkWindowSweep(b *testing.B) {
	var pts []exp.WindowPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunWindowSweep([]units.Size{128 * units.KB, 512 * units.KB})
	}
	b.ReportMetric(pts[0].Efficiency.Mbit(), "eff-128K-Mb/s")
	b.ReportMetric(pts[len(pts)-1].Efficiency.Mbit(), "eff-512K-Mb/s")
}

// BenchmarkLazyPinAblation measures the Section 4.4.1 buffer-reuse
// extension.
func BenchmarkLazyPinAblation(b *testing.B) {
	var pts []exp.LazyPinPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunLazyPinAblation()
	}
	b.ReportMetric(pts[0].Efficiency.Mbit(), "eager-Mb/s")
	b.ReportMetric(pts[1].Efficiency.Mbit(), "lazy-Mb/s")
}

// BenchmarkThresholdAblation measures the Section 4.4.3 UIO threshold.
func BenchmarkThresholdAblation(b *testing.B) {
	var pts []exp.ThresholdPoint
	for i := 0; i < b.N; i++ {
		pts = exp.RunThresholdAblation([]units.Size{4 * units.KB})
	}
	b.ReportMetric(pts[0].ForcedUIO.Mbit(), "uio-Mb/s")
	b.ReportMetric(pts[0].WithThreshold.Mbit(), "thresh-Mb/s")
}

// --- Micro-benchmarks of the implementation itself ---

// BenchmarkChecksum measures the software Internet checksum (the per-byte
// cost the paper's hardware eliminates).
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []units.Size{1 * units.KB, 32 * units.KB} {
		b.Run(n.String(), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksum.Sum(buf)
			}
		})
	}
}

// BenchmarkMbufCopyRange measures the symbolic packetization primitive.
func BenchmarkMbufCopyRange(b *testing.B) {
	var chain *mbuf.Mbuf
	for i := 0; i < 16; i++ {
		chain = mbuf.Cat(chain, mbuf.NewCluster(make([]byte, mbuf.MCLBYTES)))
	}
	total := mbuf.ChainLen(chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mbuf.CopyRange(chain, total/4, total/2)
		mbuf.FreeChain(c)
	}
}

// BenchmarkSimEngine measures the discrete-event core.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("events", func(b *testing.B) {
		e := sim.NewEngine(1)
		for i := 0; i < b.N; i++ {
			e.After(units.Time(i%1000), func() {})
			if i%1024 == 1023 {
				e.Run()
			}
		}
		e.Run()
	})
	b.Run("proc-switch", func(b *testing.B) {
		e := sim.NewEngine(1)
		n := 0
		e.Go("spinner", func(p *sim.Proc) {
			for n < b.N {
				n++
				p.Sleep(1)
			}
		})
		e.Run()
	})
	// Two procs taking turns through one Signal: each op is a Signal that
	// wakes the peer plus a Wait that parks the caller.
	b.Run("signal-handoff", func(b *testing.B) {
		e := sim.NewEngine(1)
		s := sim.NewSignal(e)
		n := 0
		turn := func(p *sim.Proc) {
			for n < b.N {
				n++
				s.Signal()
				s.Wait(p)
			}
			s.Signal()
		}
		e.Go("ping", turn)
		e.Go("pong", turn)
		e.Run()
	})
	// Two procs contending for a unit-capacity Resource: every Acquire
	// but the first queues, and every Release hands the unit to the peer.
	b.Run("resource-contended", func(b *testing.B) {
		e := sim.NewEngine(1)
		r := sim.NewResource(e, 1)
		n := 0
		work := func(p *sim.Proc) {
			for n < b.N {
				n++
				r.Acquire(p, 0)
				p.Sleep(1)
				r.Release()
			}
		}
		e.Go("a", work)
		e.Go("b", work)
		e.Run()
	})
}

// BenchmarkHIPPISwitch measures the media model under back-to-back load.
func BenchmarkHIPPISwitch(b *testing.B) {
	e := sim.NewEngine(1)
	net := hippi.NewNetwork(e, hippi.LineRate, 5*units.Microsecond)
	net.Attach(1, func(hippi.Frame) {})
	got := 0
	net.Attach(2, func(hippi.Frame) { got++ })
	frame := make([]byte, 32*units.KB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, frame, nil)
		if i%256 == 255 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEndToEnd measures simulator performance itself: wall-clock cost
// per simulated megabyte through the full single-copy stack.
func BenchmarkEndToEnd(b *testing.B) {
	b.SetBytes(int64(2 * units.MB))
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(int64(i))
		ha := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
		hb := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2})
		tb.RouteCAB(ha, hb)
		ttcp.Run(tb, ha, hb, ttcp.Params{Total: 2 * units.MB, RWSize: 64 * units.KB})
	}
}

// BenchmarkUDP measures the UDP blast path (ttcp -u) on both stacks.
func BenchmarkUDP(b *testing.B) {
	for _, mode := range []socket.Mode{socket.ModeUnmodified, socket.ModeSingleCopy} {
		name := "Unmodified"
		if mode == socket.ModeSingleCopy {
			name = "Modified"
		}
		b.Run(name, func(b *testing.B) {
			var res ttcp.UDPResult
			for i := 0; i < b.N; i++ {
				tb := core.NewTestbed(int64(9 + i))
				ha := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: mode, CABNode: 1})
				hb := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: mode, CABNode: 2})
				tb.RouteCAB(ha, hb)
				res = ttcp.RunUDP(tb, ha, hb, ttcp.Params{
					Total: 8 * units.MB, RWSize: 16 * units.KB,
					WithUtil: true, WithBackground: true,
				})
			}
			b.ReportMetric(res.Throughput.Mbit(), "vMb/s")
			b.ReportMetric(res.Snd.Efficiency.Mbit(), "eff-Mb/s")
			b.ReportMetric(res.LossFraction, "loss")
		})
	}
}
