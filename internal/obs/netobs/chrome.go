package netobs

import (
	"encoding/json"
	"strconv"

	"repro/internal/units"
)

// Chrome-trace counter events.  The obs package's event struct is
// unexported, and counter tracks ("ph":"C") need a different shape anyway:
// one numeric arg per named counter, grouped by pid.
type chromeCounter struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	PID  string     `json:"pid"`
	Args counterVal `json:"args"`
}

type counterVal struct {
	V int64 `json:"v"`
}

type chromeFile struct {
	TraceEvents []chromeCounter `json:"traceEvents"`
}

func micros(t int64) float64 { return float64(t) / float64(units.Microsecond) }

// Chrome renders the recorder's series as Chrome-trace counter tracks
// (load chrome://tracing or Perfetto).  Each flow contributes cwnd,
// ssthresh, flight and snd_wnd tracks under its host's pid; each wire port
// contributes tx/rx busy-fraction tracks under the wire's pid.
func (r *Recorder) Chrome() []byte {
	if r == nil {
		return nil
	}
	return r.Snapshot().Chrome()
}

// Chrome renders a saved wire-series dump (the netobs.json that -obs netobs
// writes) as the same counter tracks the live recorder produces, so
// cmd/trace can re-render a capture without re-running the simulation.
// Multi-switch fabrics carry named trunk ports whose synthetic ids are
// namespaced above host nodes; those tracks are labeled by trunk name so
// ports from different switches can't collide on a port number.
func (d *Dump) Chrome() []byte {
	if d == nil {
		return nil
	}
	f := chromeFile{TraceEvents: []chromeCounter{}}
	add := func(pid, name string, tNs, v int64) {
		f.TraceEvents = append(f.TraceEvents, chromeCounter{
			Name: name, Ph: "C", TS: micros(tNs), PID: pid, Args: counterVal{V: v},
		})
	}
	for i := range d.Flows {
		fr := &d.Flows[i]
		tag := "flow " + strconv.Itoa(fr.Port) + ":" + strconv.Itoa(fr.RPort)
		for j := range fr.Samples {
			s := &fr.Samples[j]
			add(fr.Host, tag+" cwnd", s.TNs, s.Cwnd)
			add(fr.Host, tag+" ssthresh", s.TNs, s.Ssthresh)
			add(fr.Host, tag+" flight", s.TNs, s.Flight)
			add(fr.Host, tag+" snd_wnd", s.TNs, s.SndWnd)
		}
	}
	for _, w := range d.Wires {
		for _, p := range w.Ports {
			label := "node " + strconv.Itoa(p.Node)
			if p.Name != "" {
				label = "link " + p.Name
			}
			emitPerMille(add, "wire "+w.Label, label+" tx_busy_pm", p.TxBusyPerMille, w.WindowNs)
			emitPerMille(add, "wire "+w.Label, label+" rx_busy_pm", p.RxBusyPerMille, w.WindowNs)
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		panic("netobs: chrome marshal: " + err.Error())
	}
	return b
}

func emitPerMille(add func(pid, name string, tNs, v int64), pid, name string, pm []int64, windowNs int64) {
	for i, v := range pm {
		add(pid, name, windowNs*int64(i), v)
	}
}
