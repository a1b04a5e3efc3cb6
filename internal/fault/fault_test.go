package fault

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cab"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestSchedules(t *testing.T) {
	fires := func(s Schedule, times []units.Time) []bool {
		s.seed(rand.New(rand.NewSource(1)))
		var out []bool
		for _, now := range times {
			out = append(out, s.fire(now))
		}
		return out
	}
	zeros := make([]units.Time, 8)
	if got := fires(Every(3), zeros); !equal(got, []bool{false, false, true, false, false, true, false, false}) {
		t.Fatalf("Every(3) = %v", got)
	}
	if got := fires(Burst(2, 3), zeros); !equal(got, []bool{false, false, true, true, true, false, false, false}) {
		t.Fatalf("Burst(2,3) = %v", got)
	}
	ms := func(n int) units.Time { return units.Time(n) * units.Millisecond }
	clock := []units.Time{ms(0), ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7)}
	if got := fires(At(ms(3)), clock); !equal(got, []bool{false, false, false, true, false, false, false, false}) {
		t.Fatalf("At(3ms) = %v", got)
	}
	if got := fires(Window(ms(2), ms(5)), clock); !equal(got, []bool{false, false, true, true, true, false, false, false}) {
		t.Fatalf("Window(2ms,5ms) = %v", got)
	}
	// Prob is deterministic under the same seed and sensible in aggregate.
	long := make([]units.Time, 10000)
	a, b := fires(Prob(0.3), long), fires(Prob(0.3), long)
	if !equal(a, b) {
		t.Fatal("same-seed Prob schedules diverged")
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Fatalf("Prob(0.3) fired %d/10000 times", n)
	}
}

func equal(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInjectorDeterminism runs the same plan+seed against the same frame
// sequence twice: verdicts, mutations, and fire counts must be identical.
func TestInjectorDeterminism(t *testing.T) {
	run := func() ([]hippi.Verdict, [][]byte, [numKinds]int64) {
		eng := sim.NewEngine(1)
		in := New(eng, 42)
		in.Add(Rule{Kind: Drop, When: Prob(0.1)})
		in.Add(Rule{Kind: Corrupt, When: Every(7)})
		in.Add(Rule{Kind: Dup, When: Burst(5, 3)})
		in.Add(Rule{Kind: Delay, When: Prob(0.2)})
		var vs []hippi.Verdict
		var datas [][]byte
		for i := 0; i < 200; i++ {
			data := make([]byte, 500)
			for j := range data {
				data[j] = byte(i + j)
			}
			f := hippi.Frame{Src: 1, Dst: 2, Data: data}
			vs = append(vs, in.Frame(&f))
			datas = append(datas, f.Data)
		}
		return vs, datas, in.Fired
	}
	v1, d1, f1 := run()
	v2, d2, f2 := run()
	if f1 != f2 {
		t.Fatalf("fire counts diverged: %v vs %v", f1, f2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, v1[i], v2[i])
		}
		if string(d1[i]) != string(d2[i]) {
			t.Fatalf("frame %d mutated differently", i)
		}
	}
	if f1[Drop] == 0 || f1[Corrupt] == 0 || f1[Dup] == 0 || f1[Delay] == 0 {
		t.Fatalf("vacuous: fired = %v", f1)
	}
}

// TestCorruptStaysInTransportSegment asserts bit flips never land in the
// link or IP header (where they would cause parse drops instead of
// checksum detections), and that too-short frames are spared.
func TestCorruptStaysInTransportSegment(t *testing.T) {
	eng := sim.NewEngine(1)
	in := New(eng, 7)
	in.Add(Rule{Kind: Corrupt, When: Every(1)})
	for i := 0; i < 100; i++ {
		orig := make([]byte, 300)
		f := hippi.Frame{Data: make([]byte, 300)}
		copy(f.Data, orig)
		in.Frame(&f)
		for off := 0; off < int(corruptSkip); off++ {
			if f.Data[off] != orig[off] {
				t.Fatalf("corruption at offset %d, inside headers (< %d)", off, corruptSkip)
			}
		}
	}
	if in.Fired[Corrupt] != 100 {
		t.Fatalf("fired %d, want 100", in.Fired[Corrupt])
	}
	// A frame with no transport payload is never corrupted.
	short := hippi.Frame{Data: make([]byte, int(corruptSkip))}
	in.Frame(&short)
	if in.Fired[Corrupt] != 100 {
		t.Fatal("corrupted a frame with no transport segment")
	}
}

// TestCsumMaskNeverAliases: the xor mask applied to a checksum must never
// be 0 (no fault) or 0xffff (aliases under one's-complement folding).
func TestCsumMaskNeverAliases(t *testing.T) {
	eng := sim.NewEngine(1)
	in := New(eng, 3)
	in.Add(Rule{Kind: TxCsum, When: Every(1)})
	in.Add(Rule{Kind: TxCsum, When: Every(1)}) // two rules xor-combine
	for i := 0; i < 1000; i++ {
		m := in.csumMask(TxCsum)
		if m == 0 || m == 0xffff || m > 0xffff {
			t.Fatalf("mask %#x can escape checksum detection", m)
		}
	}
}

func TestParsePlan(t *testing.T) {
	rs := MustPlan("drop:every=13,min=1000; corrupt:p=0.01 ;dup:burst=50+20,dup=2")
	if len(rs) != 3 {
		t.Fatalf("got %d rules", len(rs))
	}
	if rs[0].Kind != Drop || rs[0].MinLen != 1000 {
		t.Fatalf("rule 0 = %+v", rs[0])
	}
	if rs[2].Dup != 2 {
		t.Fatalf("rule 2 dup = %d", rs[2].Dup)
	}

	rs = MustPlan("netmem:at=1ms,until=6ms,pages=100")
	if rs[0].From != 1*units.Millisecond || rs[0].Until != 6*units.Millisecond || rs[0].Pages != 100 {
		t.Fatalf("netmem rule = %+v", rs[0])
	}
	if rs[0].When != nil {
		t.Fatal("netmem rule should have no event schedule")
	}

	rs = MustPlan("delay:window=1ms+2ms,delay=500us;reorder:every=40")
	if _, ok := rs[0].When.(*windowSched); !ok || rs[0].Delay != 500*units.Microsecond {
		t.Fatalf("delay rule = %+v", rs[0])
	}

	rs = MustPlan("partition:at=5ms,dur=20ms,link=leaf0-spine1")
	if rs[0].Link != "leaf0-spine1" || rs[0].From != 5*units.Millisecond {
		t.Fatalf("link partition rule = %+v", rs[0])
	}

	// Default schedule when none is given.
	rs = MustPlan("drop:min=32K")
	if _, ok := rs[0].When.(*everySched); !ok || rs[0].MinLen != 32*units.KB {
		t.Fatalf("default-schedule rule = %+v", rs[0])
	}

	for _, bad := range []string{
		"", "bogus", "drop:every=0", "drop:p=2", "drop:burst=5",
		"netmem:pages=-1", "drop:at=5", "drop:wat=1", "drop:min=1z",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("plan %q parsed without error", bad)
		}
	}
}

// TestParsePlanPositionalErrors pins the parse-error contract: a bad plan
// names the 1-based rule it failed on, the rule's kind once that is known,
// and the offending token — so a twelve-rule soak spec is debuggable from
// the message alone.
func TestParsePlanPositionalErrors(t *testing.T) {
	cases := []struct {
		spec string
		want []string // substrings the error must carry
	}{
		// The failing rule's index, even past healthy rules.
		{"drop:every=13;corrupt:p=0.5;zap:at=1ms",
			[]string{"rule 3", `unknown kind "zap"`}},
		// Kind plus the literal offending token.
		{"drop:every=13;partition:dur=0ms",
			[]string{"rule 2", "partition", `dur="0ms"`}},
		{"cabreset:node=1",
			[]string{"rule 1", "cabreset", "at=DUR"}},
		{"partition:at=5ms,node=2",
			[]string{"rule 1", "partition", `"node=2"`}},
		{"cabreset:at=8ms,dur=2ms",
			[]string{"rule 1", "cabreset", `"dur=2ms"`}},
		{"partition:at=9ms,dur=bogus",
			[]string{"rule 1", "partition", `"bogus"`}},
		{"drop:every=13;partition:at=6ms,until=5ms",
			[]string{"rule 2", "partition", "not after"}},
		// Fabric-link partitions: link= only applies to partition, needs a
		// name, and excludes the host-wire src/dst filters.
		{"drop:link=leaf0-spine1",
			[]string{"rule 1", "drop", `"link=leaf0-spine1"`}},
		{"partition:at=5ms,dur=2ms,link=",
			[]string{"rule 1", "partition", `link=""`, "leaf0-spine1"}},
		{"partition:at=5ms,dur=2ms,link=leaf0-spine1,src=2",
			[]string{"rule 1", "partition", "link=leaf0-spine1", "src/dst"}},
		// Out-of-range numbers are errors, never a wrapped negative
		// duration or size (a negative dur would leave Until=0: an
		// open-ended partition).
		{"partition:at=1ms,dur=9300000000s",
			[]string{"rule 1", "partition", `"9300000000s"`, "overflows"}},
		{"drop:every=13;drop:min=9000000000000000M",
			[]string{"rule 2", "drop", `"9000000000000000M"`, "overflows"}},
		{"netmem:at=9000000000s,dur=900000000s",
			[]string{"rule 1", "netmem", "overflows"}},
	}
	for _, c := range cases {
		_, err := ParsePlan(c.spec)
		if err == nil {
			t.Errorf("plan %q parsed without error", c.spec)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("plan %q: error %q missing %q", c.spec, err, w)
			}
		}
	}
}

func TestAddPlanAndReport(t *testing.T) {
	eng := sim.NewEngine(1)
	in := New(eng, 1)
	if err := in.AddPlan("drop:every=2"); err != nil {
		t.Fatal(err)
	}
	if err := in.AddPlan("nope"); err == nil {
		t.Fatal("bad plan accepted")
	}
	if got := in.Report(); got != "fault injection: none fired" {
		t.Fatalf("empty report = %q", got)
	}
	for i := 0; i < 4; i++ {
		f := hippi.Frame{Data: make([]byte, 100)}
		in.Frame(&f)
	}
	if got := in.Report(); !strings.Contains(got, "drop=2") {
		t.Fatalf("report = %q", got)
	}
}

// TestDisabledHooksStayNil: wiring an injector installs only the hooks its
// plan needs, so absent fault kinds cost nothing on the hot path.
func TestDisabledHooksStayNil(t *testing.T) {
	eng := sim.NewEngine(1)
	in := New(eng, 1)
	in.Add(Rule{Kind: DMAFail, When: Every(5)})
	net := hippi.NewNetwork(eng, hippi.LineRate, 0)
	c := cab.New(eng, cost.Alpha400(), net, 1, cab.DefaultConfig())
	in.WireCAB(c)
	if c.FaultSDMA == nil {
		t.Fatal("DMAFail rule did not install the SDMA hook")
	}
	if c.FaultTxCsum != nil || c.FaultRxCsum != nil {
		t.Fatal("checksum hooks installed without checksum rules")
	}
}
