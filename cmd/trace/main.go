// Command trace runs a short single-copy transfer and prints a
// tcpdump-style trace of every packet crossing a host's stack,
// showing the handshake, the descriptor-bearing data segments, the
// acknowledgement clock, and the FIN exchange.
//
// Usage:
//
//	trace [-n 40] [-host A|B|both] [-dir in|out|both] [-json] [-flow <port>]
//	      [-obs telemetry,critpath,...] [-obs-dir DIR]
//	      [-netobs dump.json -obs-dir DIR]
//
// -json emits one JSON object per event (machine-readable) instead of the
// tcpdump-style line. -flow keeps only the segments of one flow (the data
// sender's port; the simulator's first ephemeral port is 10001).
//
// -obs turns observers on, as in ttcp: each prints its text summary after
// the trace (on stderr under -json) and, with -obs-dir, writes its files
// there. telemetry writes trace.json, the data-path spans as Chrome
// trace-event JSON — filtered to -flow when given — with flow-binding
// ("s"/"f") events so one byte range's journey renders as cross-host
// arrows in Perfetto. critpath prints every completed read's
// critical-path waterfall: each row is one lifecycle event with the cause
// class and duration of the stall edge that delivered it, and the
// per-cause sums reconstruct the end-to-end latency exactly;
// critpath.json holds the same paths as Chrome trace-event JSON (one
// track per cause class).
//
// -netobs skips the built-in transfer entirely and instead re-renders a
// saved transport-dynamics dump (loadgen's netobs.json) as Chrome counter
// tracks in DIR/netobs-chrome.json. Multi-switch fabrics work: trunk
// ports carry switch-namespaced synthetic ids and are labeled by trunk
// name ("link leaf0-spine1>"), so the export can't collide on duplicate
// port numbers:
//
//	loadgen -topology leafspine:4x2 -flows 64 -bulk -obs netobs -obs-dir run
//	trace -netobs run/netobs.json -obs-dir wire
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/obs/netobs"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	n := flag.Int("n", 40, "maximum trace lines to print")
	hostF := flag.String("host", "A", "which host's stack to trace: A (sender), B (receiver), both")
	dirF := flag.String("dir", "both", "direction filter: in, out, both")
	jsonF := flag.Bool("json", false, "emit events as JSON lines")
	flowF := flag.Int("flow", 0, "only trace segments of this flow (the data sender's port; 0 = all)")
	netobsIn := flag.String("netobs", "", "re-render this saved transport-dynamics dump (loadgen's netobs.json) as Chrome counter tracks in -obs-dir instead of running a transfer")
	obsList := flag.String("obs", "", "observers to turn on, comma-separated: "+strings.Join(core.ObsNames(), ","))
	obsDir := flag.String("obs-dir", "", "write each selected observer's files to this directory")
	flag.Parse()

	if *netobsIn != "" {
		if *obsDir == "" {
			fmt.Fprintln(os.Stderr, "trace: -netobs needs -obs-dir DIR")
			os.Exit(2)
		}
		raw, err := os.ReadFile(*netobsIn)
		die(err)
		var dump netobs.Dump
		if err := json.Unmarshal(raw, &dump); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", *netobsIn, err)
			os.Exit(1)
		}
		out := filepath.Join(*obsDir, "netobs-chrome.json")
		die(os.MkdirAll(*obsDir, 0o755))
		die(os.WriteFile(out, dump.Chrome(), 0o644))
		fmt.Fprintf(os.Stderr, "wrote %s (%d flows, %d wires)\n", out, len(dump.Flows), len(dump.Wires))
		return
	}

	sel, err := core.ParseObs(*obsList, *obsDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(2)
	}
	if *dirF != "in" && *dirF != "out" && *dirF != "both" {
		fmt.Fprintf(os.Stderr, "trace: bad -dir %q (want in, out, or both)\n", *dirF)
		os.Exit(2)
	}

	tb := core.NewTestbed(5)
	die(sel.Start(tb))
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001),
		Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002),
		Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)

	both := *hostF == "both"
	lines := 0
	mkTracer := func(host string) func(tcpip.TraceEvent) {
		return func(e tcpip.TraceEvent) {
			if *dirF != "both" && e.Dir.String() != *dirF {
				return
			}
			if *flowF != 0 && (e.TCP == nil ||
				(int(e.TCP.SPort) != *flowF && int(e.TCP.DPort) != *flowF)) {
				return
			}
			lines++
			if lines > *n {
				return
			}
			switch {
			case *jsonF:
				out, err := json.Marshal(struct {
					Host string `json:"host"`
					tcpip.TraceEvent
				}{host, e})
				die(err)
				fmt.Println(string(out))
			case both:
				fmt.Printf("%s %v\n", host, e)
			default:
				fmt.Println(e)
			}
		}
	}
	switch *hostF {
	case "A":
		a.Stk.Tracer = mkTracer("A")
	case "B":
		b.Stk.Tracer = mkTracer("B")
	case "both":
		a.Stk.Tracer = mkTracer("A")
		b.Stk.Tracer = mkTracer("B")
	default:
		fmt.Fprintf(os.Stderr, "trace: bad -host %q (want A, B, or both)\n", *hostF)
		os.Exit(2)
	}

	lis := b.Stk.Listen(5001)
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(64*units.KB, 8)
		for {
			if _, err := s.Read(p, buf); err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, wire.Addr(0x0a000002), 5001)
		if err != nil {
			panic(err)
		}
		buf := st.Space.Alloc(64*units.KB, 8)
		for i := 0; i < 4; i++ {
			s.WriteAll(p, buf)
		}
		s.Close(p)
		tb.StopSeries()
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if lines > *n {
		// Keep stdout machine-readable under -json: the truncation note
		// is commentary, not an event.
		fmt.Fprintf(os.Stderr, "... (%d more events)\n", lines-*n)
	}
	out := os.Stdout
	if *jsonF {
		out = os.Stderr
	}
	o := tb.Observed()
	o.TraceFlow = *flowF
	o.CritFull = true
	die(sel.Write(out, o))
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}
