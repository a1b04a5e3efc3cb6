// Command loadgen drives the many-flow workload engine (internal/load)
// from the command line: it stands up an N-client × M-server testbed,
// runs hundreds to thousands of concurrent TCP/UDP flows through the
// real socket path, and prints the run's report.
//
// Usage:
//
//	loadgen -flows 256 -clients 4 -servers 2 -udpfrac 0.25 -openloop -rate 2000
//	loadgen -flows 11 -bulk -duration 120ms -warmup 20ms -arb        # fairness incast
//	loadgen -flows 1024 -requests 2 -json                            # machine-readable
//
// Two invocations with the same flags are byte-identical (the report
// carries an order digest over every delivery event), so loadgen output
// can be diffed to check determinism across code changes.
//
// -obs turns observers on: each prints its text summary after the report
// (on stderr under -json) and, with -obs-dir, writes its files there.
// loadgen serves critpath (critpath.json), series (series.json,
// series.csv; the sampler stops when the last client flow finishes),
// netobs (the per-flow congestion postmortem; netobs.json,
// netobs-chrome.json), engine (the simulator meta-profile: events per
// kind, queue high-waters, advisory events/sec and allocs/event) and
// pprof (cpu.pprof, mem.pprof of the simulator process):
//
//	loadgen -flows 11 -bulk -duration 120ms -warmup 20ms -obs netobs
//	loadgen -flows 1024 -openloop -rate 2000 -arb -obs engine,pprof -obs-dir prof
//
// -topology routes the testbed through a multi-switch fabric
// (internal/fabric) instead of the classic single switch, with seeded
// ECMP across equal-cost uplinks; -cc selects the TCP congestion
// control, and -queuecap/-ecnthresh set the per-port wire queue cap and
// the fabric's CE-marking threshold:
//
//	loadgen -topology leafspine:4x2 -cc dctcp -queuecap 256 -flows 64 -bulk -obs netobs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs/engine"
	"repro/internal/socket"
	"repro/internal/units"
)

// obsNames are the observers loadgen serves: those a load.Run report
// carries, the engine observer it attaches itself, and pprof.
var obsNames = []string{"critpath", "series", "netobs", "engine", "pprof"}

func main() {
	var (
		seed    = flag.Int64("seed", 1, "scenario seed (all randomness derives from it)")
		name    = flag.String("name", "loadgen", "scenario name in the report")
		clients = flag.Int("clients", 4, "client hosts")
		servers = flag.Int("servers", 2, "server hosts")
		flows   = flag.Int("flows", 64, "concurrent flows")
		udpfrac = flag.Float64("udpfrac", 0.25, "fraction of flows carried over UDP")
		mode    = flag.String("mode", "single_copy", "stack variant: single_copy or unmodified")

		bulk      = flag.Bool("bulk", false, "bulk streaming instead of request/response")
		duration  = flag.Duration("duration", 20*time.Millisecond, "bulk: virtual-time send deadline")
		warmup    = flag.Duration("warmup", 0, "bulk: exclude deliveries before this virtual time from goodput")
		bulkWrite = flag.Int("bulkwrite", 32, "bulk: write size in KB")

		requests = flag.Int("requests", 4, "request/response: exchanges per flow")
		openloop = flag.Bool("openloop", false, "Poisson open-loop arrivals instead of closed loop")
		rate     = flag.Float64("rate", 1000, "open loop: requests/second per flow")
		think    = flag.Duration("think", 0, "closed loop: mean think time between requests")

		window   = flag.Int("window", 0, "TCP socket buffer / offered window in KB (0 = stack default)")
		udpthink = flag.Duration("udpthink", 0, "per-datagram processing time at UDP receivers")
		stagger  = flag.Duration("stagger", 0, "spread flow starts uniformly over this interval")

		memKB = flag.Int("netmem", 0, "per-adaptor network memory in KB (0 = adaptor default)")
		arb   = flag.Bool("arb", false, "install the per-flow netmem arbiter on every host")

		topology  = flag.String("topology", "", `multi-switch fabric spec: "linear:N", "leafspine:LxS", "fattree:LxS" (empty = classic single switch)`)
		cc        = flag.String("cc", "", "TCP congestion control: reno or dctcp (empty = reno)")
		queuecap  = flag.Int("queuecap", 0, "per-port wire queue cap in KB; overruns tail-drop (0 = unbounded)")
		ecnthresh = flag.Int("ecnthresh", 0, "fabric CE-marking queue threshold in KB (0 with -cc dctcp = 32)")
		mtu       = flag.Int("mtu", 0, "network-layer MTU in bytes (0 = the 32 KB paper default)")

		faultPlan = flag.String("fault", "", `fault-injection plan, e.g. "partition:at=5ms,dur=20ms" or "cabreset:at=8ms" (see internal/fault.ParsePlan)`)

		jsonOut = flag.Bool("json", false, "emit the full report as JSON")

		obsList = flag.String("obs", "", "observers to turn on, comma-separated: "+strings.Join(obsNames, ","))
		obsDir  = flag.String("obs-dir", "", "write each selected observer's files to this directory")
	)
	flag.Parse()

	sel, err := core.ParseObs(*obsList, *obsDir, obsNames...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	s := load.Scenario{
		Name:           *name,
		Seed:           *seed,
		Clients:        *clients,
		Servers:        *servers,
		Flows:          *flows,
		UDPFrac:        *udpfrac,
		Bulk:           *bulk,
		Duration:       units.Time(*duration),
		Warmup:         units.Time(*warmup),
		BulkWrite:      units.Size(*bulkWrite) * units.KB,
		Requests:       *requests,
		OpenLoop:       *openloop,
		Rate:           *rate,
		Think:          units.Time(*think),
		Window:         units.Size(*window) * units.KB,
		UDPServerThink: units.Time(*udpthink),
		Stagger:        units.Time(*stagger),
		FaultPlan:      *faultPlan,
		Topology:       *topology,
		CC:             *cc,
		QueueCap:       units.Size(*queuecap) * units.KB,
		ECNThreshold:   units.Size(*ecnthresh) * units.KB,
		MTU:            units.Size(*mtu),
		CritPath:       sel.Has("critpath"),
		Series:         sel.Has("series"),
		NetObs:         sel.Has("netobs"),
	}
	switch *mode {
	case "single_copy":
		s.Mode = socket.ModeSingleCopy
	case "unmodified":
		s.Mode = socket.ModeUnmodified
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if *memKB > 0 {
		s.CABConfig = &cab.Config{
			MemSize:    units.Size(*memKB) * units.KB,
			PageSize:   8 * units.KB,
			AutoDMALen: 784,
			RxCsumSkip: 80,
			Channels:   8,
		}
	}
	if *arb {
		s.Arbiter = &cab.ArbConfig{}
	}
	var eng *engine.Observer
	if sel.Has("engine") {
		eng = engine.New()
		s.EngObs = eng
	}
	die(sel.Start(nil))
	rep, err := load.Run(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		os.Stdout.Write(rep.JSON())
	} else {
		fmt.Printf("%s: %d flows (%d tcp, %d udp) mode=%s vtime=%.3fs\n",
			rep.Name, rep.Flows, rep.TCPFlows, rep.UDPFlows, rep.Mode, rep.VTimeSec)
		fmt.Printf("  delivered %d bytes (%d requests, %d/%d dgrams)\n",
			rep.TotalBytes, rep.Requests, rep.DgramsRcvd, rep.DgramsSent)
		fmt.Printf("  goodput min/p50/mean/max %.2f/%.2f/%.2f/%.2f Mb/s  jain=%.4f starved=%d\n",
			rep.GoodputMinMbps, rep.GoodputP50Mbps, rep.GoodputMeanMbps, rep.GoodputMaxMbps,
			rep.Jain, rep.Starved)
		fmt.Printf("  latency p50/p99 %.1f/%.1f us  drops=%d rx_retries=%d listen_overflows=%d\n",
			rep.LatP50Us, rep.LatP99Us, rep.Drops, rep.RxRetries, rep.ListenOverflows)
		if rep.Arbiter {
			fmt.Printf("  arbiter: waits=%d borrows=%d reclaims=%d\n",
				rep.ArbWaits, rep.ArbBorrows, rep.ArbReclaims)
		}
		if rep.FaultReport != "" {
			fmt.Printf("  %s\n", rep.FaultReport)
		}
		if rep.Topology != "" {
			fmt.Printf("  fabric %s cc=%s marks=%d trunk_drops=%d\n",
				rep.Topology, rep.CC, rep.ECNMarked, rep.TrunkDrops)
			for _, t := range rep.Trunks {
				fmt.Printf("    trunk %-14s ab=%-9d ba=%-9d drops=%d/%d\n",
					t.Name, int64(t.AB), int64(t.BA), t.DropsAB, t.DropsBA)
			}
		}
		if rep.Audit != "" {
			fmt.Printf("  single_copy_audit=%s\n", rep.Audit)
		}
		fmt.Printf("  order_digest=%s\n", rep.OrderDigest)
	}
	// With -json the report owns stdout; keep it machine-parseable.
	out := os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	die(sel.Write(out, core.Observed{Crit: rep.Crit, Series: rep.Series,
		NetObs: rep.NetObsRec, Postmortem: rep.NetObs, Eng: eng}))
	if rep.Errors != 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d flow errors (first: %s)\n", rep.Errors, rep.FirstError)
		os.Exit(1)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}
