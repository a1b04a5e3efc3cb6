package exp

import (
	"bytes"
	"testing"
)

// TestCritBenchDeterminism runs the critical-path workload matrix twice and
// requires the deterministic fields (transfers, graph sizes, per-cause
// nanoseconds) to be byte-identical — the property benchdiff's exact diff
// of BENCH_critpath.json rests on. The quick matrix (three sizes plus the
// incast) is always enough to pin determinism; the committed baseline uses
// the full grid.
func TestCritBenchDeterminism(t *testing.T) {
	a, err := RunCritPath(true)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunCritPath(true)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, r := range []*CritBench{&a, &b} {
		for i := range r.Cells {
			r.Cells[i].Adv = critAdv{}
		}
	}
	ja, jb := a.JSON(), b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("deterministic fields differ between same-seed runs:\n--- first\n%s\n--- second\n%s", ja, jb)
	}
	for _, c := range a.Cells {
		if c.Transfers == 0 || c.Events == 0 {
			t.Fatalf("cell %s recorded no transfers/events", c.Name)
		}
		if c.TotalNs <= 0 {
			t.Fatalf("cell %s attributed no latency", c.Name)
		}
		if c.Mode == "single_copy" && (c.SenderCopyNs != 0 || c.SenderCsumNs != 0) {
			t.Fatalf("cell %s: single-copy sender shows copy=%dns csum=%dns on the critical path",
				c.Name, c.SenderCopyNs, c.SenderCsumNs)
		}
	}
}
