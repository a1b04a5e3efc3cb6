package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/obs/netobs"
	"repro/internal/obs/prof"
)

// Observed is what a finished run's observers recorded: the input to
// ObsSet.Write. Testbed.Observed fills it from a testbed; a caller whose
// testbed lives elsewhere (load.Run) fills the fields its report carries.
type Observed struct {
	Tel    *obs.Telemetry
	Crit   *obs.CritRec
	Prof   *prof.Profiler
	Series *obs.SeriesSet
	Led    *ledger.Ledger
	// Flight is the flight-recorder image (Testbed.FlightDump).
	Flight     []byte
	NetObs     *netobs.Recorder
	Postmortem *netobs.Postmortem
	Eng        *engine.Observer
	// TraceFlow, when nonzero, keeps only that flow in trace.json.
	TraceFlow int
	// CritFull prints every critical path's waterfall, not only the last.
	CritFull bool

	critRep *critpath.Report
	cpu     *bytes.Buffer
}

// Observed gathers the testbed's observers for ObsSet.Write.
func (tb *Testbed) Observed() Observed {
	o := Observed{Tel: tb.Tel, Prof: tb.Prof, Series: tb.Series, Led: tb.Led,
		NetObs: tb.NetObs, Postmortem: tb.NetObsPostmortem(0), Eng: tb.EngObs}
	if tb.Tel != nil {
		o.Crit = tb.Tel.Crit()
	}
	if tb.Led != nil {
		o.Flight = tb.FlightDump()
	}
	return o
}

// obsFile is one file an observer writes under -obs-dir.
type obsFile struct {
	name string
	data func(o *Observed) []byte
}

// obsTable is every observer the commands' -obs flag selects, in the
// order their summaries print. enable turns the observer on in a testbed
// (nil: nothing to turn on there); summary prints its text after the
// run's report (nil: files only).
var obsTable = []struct {
	name    string
	enable  func(tb *Testbed)
	summary func(w io.Writer, o *Observed)
	files   []obsFile
}{
	{"telemetry", func(tb *Testbed) { tb.EnableTelemetry() },
		func(w io.Writer, o *Observed) { fmt.Fprint(w, "\n"+o.Tel.Snapshot().Format()) },
		[]obsFile{
			{"metrics.json", func(o *Observed) []byte { return o.Tel.Snapshot().JSON() }},
			{"trace.json", func(o *Observed) []byte {
				if o.TraceFlow != 0 {
					return o.Tel.ChromeFlow(o.TraceFlow)
				}
				return o.Tel.Chrome()
			}},
		}},
	{"critpath", func(tb *Testbed) { tb.EnableCritPath() },
		func(w io.Writer, o *Observed) {
			fmt.Fprintln(w)
			o.critRep.WriteText(w, o.CritFull)
		},
		[]obsFile{{"critpath.json", func(o *Observed) []byte { return o.critRep.ChromeJSON() }}}},
	{"profile", func(tb *Testbed) { tb.EnableProfiling() },
		func(w io.Writer, o *Observed) { fmt.Fprint(w, "\n"+o.Prof.Folded()) },
		[]obsFile{
			{"profile.folded", func(o *Observed) []byte { return []byte(o.Prof.Folded()) }},
			{"profile.json", func(o *Observed) []byte { return o.Prof.Snapshot().JSON() }},
		}},
	{"series", func(tb *Testbed) { tb.EnableSeries() }, nil,
		[]obsFile{
			{"series.json", func(o *Observed) []byte { return o.Series.Snapshot().JSON() }},
			{"series.csv", func(o *Observed) []byte { return []byte(o.Series.Snapshot().CSV()) }},
		}},
	{"ledger", func(tb *Testbed) { tb.EnableLedger() }, nil,
		[]obsFile{
			{"ledger.json", func(o *Observed) []byte { return o.Led.JSON() }},
			{"flightrec.json", func(o *Observed) []byte { return o.Flight }},
		}},
	{"netobs", func(tb *Testbed) { tb.EnableNetObs() },
		func(w io.Writer, o *Observed) { fmt.Fprint(w, "\n"+o.Postmortem.Format()) },
		[]obsFile{
			{"netobs.json", func(o *Observed) []byte { return o.NetObs.Snapshot().JSON() }},
			{"netobs-chrome.json", func(o *Observed) []byte { return o.NetObs.Chrome() }},
		}},
	{"engine", func(tb *Testbed) { tb.EnableEngineObs(nil) },
		func(w io.Writer, o *Observed) {
			fmt.Fprintln(w, "\nengine meta-profile:")
			for _, line := range strings.Split(strings.TrimRight(o.Eng.Snapshot().Format(), "\n"), "\n") {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}, nil},
	// pprof profiles the simulator process itself: Start begins the CPU
	// profile, and writing cpu.pprof ends it.
	{"pprof", nil, nil,
		[]obsFile{
			{"cpu.pprof", func(o *Observed) []byte {
				pprof.StopCPUProfile()
				return o.cpu.Bytes()
			}},
			{"mem.pprof", func(o *Observed) []byte {
				runtime.GC()
				var b bytes.Buffer
				_ = pprof.WriteHeapProfile(&b) // its only error is the writer's, and a bytes.Buffer has none
				return b.Bytes()
			}},
		}},
}

// ObsNames lists every observer name, in table order.
func ObsNames() []string {
	names := make([]string, len(obsTable))
	for i, e := range obsTable {
		names[i] = e.name
	}
	return names
}

// ObsSet is a parsed -obs selection and its -obs-dir.
type ObsSet struct {
	on  map[string]bool
	dir string
	cpu *bytes.Buffer
}

// ParseObs parses a comma-separated observer list. valid restricts the
// names a command can serve; none means every name. dir is where Write
// puts each selected observer's files ("" writes none); pprof writes
// only files, so it needs one.
func ParseObs(list, dir string, valid ...string) (*ObsSet, error) {
	if len(valid) == 0 {
		valid = ObsNames()
	}
	s := &ObsSet{on: map[string]bool{}, dir: dir}
	for _, name := range strings.Split(list, ",") {
		if name == "" {
			continue
		}
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown observer %q (valid here: %s)", name, strings.Join(valid, ","))
		}
		s.on[name] = true
	}
	if s.on["pprof"] && dir == "" {
		return nil, fmt.Errorf("observer pprof writes only files: give -obs-dir")
	}
	return s, nil
}

// Has reports whether the named observer is selected.
func (s *ObsSet) Has(name string) bool { return s.on[name] }

// Start turns every selected observer on in tb (before AddHost) and
// starts the pprof CPU profile. A caller that turns its observers on
// itself passes a nil tb.
func (s *ObsSet) Start(tb *Testbed) error {
	for _, e := range obsTable {
		if s.on[e.name] && e.enable != nil && tb != nil {
			e.enable(tb)
		}
	}
	if s.on["pprof"] {
		s.cpu = new(bytes.Buffer)
		return pprof.StartCPUProfile(s.cpu)
	}
	return nil
}

// Write prints each selected observer's text summary to w and, with a
// directory set, writes its files there under their fixed names.
func (s *ObsSet) Write(w io.Writer, o Observed) error {
	o.cpu = s.cpu
	if s.on["critpath"] {
		o.critRep = critpath.Analyze(o.Crit)
	}
	for _, e := range obsTable {
		if s.on[e.name] && e.summary != nil {
			e.summary(w, &o)
		}
	}
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	for _, e := range obsTable {
		if !s.on[e.name] {
			continue
		}
		for _, f := range e.files {
			if err := os.WriteFile(filepath.Join(s.dir, f.name), f.data(&o), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
