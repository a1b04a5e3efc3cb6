package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs/engine"
)

// tracer carries one traced repetition's observers and the layer
// counters read from them. All methods are no-ops on a nil tracer, which
// is how untraced repetitions run.
type tracer struct {
	eng *engine.Observer

	segsOut, fastRtx, rtoFires, rtxDropped int64
	uioWrites, copyWrites                  int64
	uioObservable                          bool
	rxRetries, arbWaits, drops, trunkDrops int64
}

func newTracer() *tracer { return &tracer{eng: engine.New()} }

// attach turns on the engine observer and the telemetry counters of a
// testbed the benchmark builds itself. Call before AddHost.
func (t *tracer) attach(tb *core.Testbed) {
	if t == nil {
		return
	}
	tb.EnableEngineObs(t.eng)
	tb.EnableTelemetry()
}

// collect adds a finished testbed's public counters.
func (t *tracer) collect(tb *core.Testbed) {
	if t == nil {
		return
	}
	t.uioObservable = true
	for _, h := range tb.Hosts {
		st := h.Stk.Stats
		t.segsOut += int64(st.TCPSegsOut + st.UDPOut)
		t.fastRtx += int64(st.TCPFastRetransmits)
		t.rxRetries += int64(h.CAB.Stats.RxRetries)
		t.arbWaits += int64(h.CAB.Stats.ArbWaits)
		for _, m := range h.Snapshot().Metrics {
			switch m.Name {
			case "tcp.rto_fires":
				t.rtoFires += m.Value
			case "socket.uio_writes":
				t.uioWrites += m.Value
			case "socket.copy_writes":
				t.copyWrites += m.Value
			}
		}
	}
	t.drops += int64(tb.Net.Dropped)
	t.trunkDrops += int64(tb.Net.DroppedFull)
}

// collectLoad reads a load.Run report: its adaptor and fabric counters,
// and the netobs recorder for the transport counters (load.Run keeps its
// hosts' stacks to itself). The recorder logs every RTO fire and fast
// retransmit, and counts the frames each host port sends: TCP segments
// and UDP datagrams.
func (t *tracer) collectLoad(rp *load.Report) {
	if t == nil {
		return
	}
	t.rxRetries += rp.RxRetries
	t.arbWaits += rp.ArbWaits
	t.trunkDrops += int64(rp.TrunkDrops)
	d := rp.NetObsRec.Snapshot()
	if d == nil {
		return
	}
	for _, f := range d.Flows {
		for _, ev := range f.Rtx {
			switch ev.Kind {
			case "rto":
				t.rtoFires++
			case "fast":
				t.fastRtx++
			}
		}
		t.rtxDropped += f.DroppedRtx
	}
	for _, w := range d.Wires {
		if w.Label != "hippi" {
			continue
		}
		t.drops += w.DropInj + w.DropUnattached + w.DropFull
		for _, p := range w.Ports {
			if p.Name == "" { // host ports; trunk ports carry a name
				t.segsOut += p.TxFrames
			}
		}
	}
}

func (t *tracer) engEvents() int64 { return t.eng.Snapshot().Det.EventsTotal }

// metrics renders the counters as per-layer metrics.
func (t *tracer) metrics(out map[string]metric) {
	s := t.eng.Snapshot()
	count := func(name string, v int64) { out[name] = metric{float64(v), "count"} }
	count("sim.events", s.Det.EventsTotal)
	count("sim.events_proc", s.Det.Events.Proc)
	count("sim.events_timer", s.Det.Events.Timer)
	count("sim.events_wire", s.Det.Events.Wire)
	count("sim.queue_depth_hw", s.Det.QueueDepthHW)
	count("kern.charges", s.Det.KernCharges)
	out["sim.ns_per_event"] = metric{s.Adv.NsPerEvent, "ns"}
	out["sim.events_per_s"] = metric{s.Adv.EventsPerSec, "1/s"}

	rtx := t.rtoFires + t.fastRtx + t.rtxDropped
	count("tcpip.segs_out", t.segsOut)
	count("tcpip.retransmits", rtx)
	count("tcpip.rto_fires", t.rtoFires)
	out["tcpip.retransmit_frac"] = metric{ratio(rtx, t.segsOut), "fraction"}
	uio := -1.0 // not observable through load.Run
	if t.uioObservable {
		uio = ratio(t.uioWrites, t.uioWrites+t.copyWrites)
	}
	out["socket.uio_write_frac"] = metric{uio, "fraction"}
	count("cabdrv.rx_retries", t.rxRetries)
	count("cab.arb_waits", t.arbWaits)
	count("hippi.drops", t.drops)
	count("hippi.trunk_drops", t.trunkDrops)
}

// freshHeap collects the previous repetition's garbage before the next
// one starts, so every traced and untraced repetition after the first
// runs on the same recycled heap.
func freshHeap() { runtime.GC() }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedRun is the per-layer run: the layer probes first, then pairs of
// one untraced and one traced repetition until the budget is spent. The
// traced repetitions run under the CPU profiler with the engine observer
// and the public counters on; their CPU time over the untraced ones is
// the tracing overhead.
func tracedRun(w *workload, budget time.Duration) result {
	start := time.Now()
	out := runProbes()
	var (
		t             tally
		plain, traced []float64
		samples       = map[string]int64{}
		last          *tracer
		prof          bytes.Buffer
	)
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		freshHeap()
		c0 := cpuTime()
		r, err := runRep(w, nil)
		if t.add(w, r.ident, err) {
			plain = append(plain, (cpuTime() - c0).Seconds())
		}

		freshHeap()
		tr := newTracer()
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			t.failed += w.ops
			break
		}
		c0 = cpuTime()
		r, err = runRep(w, tr)
		cpu := (cpuTime() - c0).Seconds()
		pprof.StopCPUProfile()
		if !t.add(w, r.ident, err) {
			continue
		}
		traced = append(traced, cpu)
		last = tr
		if err := addProfile(prof.Bytes(), samples); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			t.failed += w.ops
		}
	}
	res := result{Correct: t.failed == 0 && last != nil && len(plain) > 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: out}
	if !res.Correct {
		res.Failed = max(res.Failed, 1)
		return res
	}
	last.metrics(out)
	var total int64
	for _, n := range samples {
		total += n
	}
	for _, l := range layers {
		out[l+".cpu_share"] = metric{ratio(samples[l], total), "fraction"}
	}
	out["trace.overhead_ratio"] = metric{median(traced) / median(plain), "ratio"}
	fmt.Printf("traced reps=%d cpu_s=%.3f untraced cpu_s=%.3f profile samples=%d\n", len(traced), traced, plain, total)
	return res
}
