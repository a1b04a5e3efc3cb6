package exp

import (
	"bytes"
	"testing"

	"repro/internal/obs/engine"
)

// TestSimBenchDeterminism runs the simbench workload matrix twice and
// requires the deterministic sections (event counts by kind, queue
// high-waters, kernel charges, virtual time) to be byte-identical — the
// property the CI gate's exact diff of BENCH_sim.json rests on. Under
// -short only the quick matrix (fig5 + 256-flow load) runs; the full run
// adds the soak matrix and the 1024-flow scenario.
func TestSimBenchDeterminism(t *testing.T) {
	quick := testing.Short()
	a, err := RunSimBench(quick)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunSimBench(quick)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, r := range []*SimBench{&a, &b} {
		for i := range r.Workloads {
			r.Workloads[i].Adv = engine.Advisory{}
		}
	}
	ja, jb := a.JSON(), b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("deterministic sections differ between same-seed runs:\n--- first\n%s\n--- second\n%s", ja, jb)
	}
	for _, w := range a.Workloads {
		if w.Det.EventsTotal == 0 {
			t.Fatalf("workload %s observed no events", w.Name)
		}
		if w.VirtualNs == 0 {
			t.Fatalf("workload %s recorded no virtual time", w.Name)
		}
	}
}
