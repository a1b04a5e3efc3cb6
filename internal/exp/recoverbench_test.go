package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecoverBenchDeterminism runs the recovery matrix twice and requires
// the deterministic fields (injection schedule, first-goodput instants,
// flow fates, byte/reset/drop counts) to be byte-identical — the property
// benchdiff's exact diff of BENCH_recover.json rests on.
func TestRecoverBenchDeterminism(t *testing.T) {
	a, err := RunRecoverBench()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunRecoverBench()
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, r := range []*RecoverBench{&a, &b} {
		for i := range r.Cells {
			r.Cells[i].Adv = recoverAdv{}
		}
	}
	ja, jb := a.JSON(), b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("deterministic fields differ between same-seed runs:\n--- first\n%s\n--- second\n%s", ja, jb)
	}
	for _, c := range a.Cells {
		// Every flow must have a committed fate: byte-exact completion or
		// a documented error on the side that failed.
		for i, f := range c.FlowFates {
			if !f.Complete && f.SndErr == "" && f.RcvErr == "" {
				t.Fatalf("cell %s flow %d: incomplete with no error", c.Name, i)
			}
		}
		switch {
		case strings.HasPrefix(c.Name, "partition-"):
			if c.PartitionDrops == 0 {
				t.Fatalf("cell %s: partition never ate a frame", c.Name)
			}
			if c.HealAtNs > c.FaultAtNs && c.FirstGoodputNs > 0 && c.FirstGoodputNs < c.HealAtNs {
				t.Fatalf("cell %s: goodput at %dns inside the partition window ending %dns",
					c.Name, c.FirstGoodputNs, c.HealAtNs)
			}
		case strings.HasPrefix(c.Name, "cabreset-"):
			if c.Resets == 0 {
				t.Fatalf("cell %s: no firmware reset observed", c.Name)
			}
		}
	}
}
