package fault

import "testing"

// FuzzParsePlan feeds arbitrary specs to the plan grammar: it must never
// panic, and every rule it accepts must carry a sane schedule — no
// negative time or size (an overflowed dur= once parsed to a negative
// Dur with Until=0, an open-ended partition) and no window that closes
// before it opens.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParsePlan(spec)
		if err != nil {
			return
		}
		for i, r := range rules {
			if r.From < 0 || r.Until < 0 || r.Dur < 0 || r.MinLen < 0 || r.Delay < 0 {
				t.Fatalf("%q: rule %d has a negative field: %+v", spec, i+1, r)
			}
			if r.Until != 0 && r.Until <= r.From {
				t.Fatalf("%q: rule %d window [%v, %v) is empty", spec, i+1, r.From, r.Until)
			}
		}
	})
}
