// Command ttcp runs one simulated bulk transfer between two hosts and
// reports throughput, utilization, and efficiency — the simulated analogue
// of the ttcp runs behind Figures 5 and 6.
//
// Usage:
//
//	ttcp [-mode single|unmodified|raw] [-proto tcp|udp] [-size 64K] [-total 16M]
//	     [-machine alpha400|alpha300] [-window 512K] [-lazy]
//	     [-fault 'drop:every=13,min=1000;corrupt:p=0.01'] [-fault-seed 1]
//	     [-obs telemetry,critpath,profile,series,ledger,netobs,engine,pprof]
//	     [-obs-dir DIR]
//
// -fault injects a deterministic fault plan (grammar in internal/fault's
// ParsePlan) on the wire, the adaptor, and the kernel; the run then also
// reports which faults fired. The same plan and -fault-seed replay the
// exact same faults.
//
// -obs turns observers on; each prints its text summary after the report
// and, with -obs-dir, writes its files there under fixed names:
//
//	telemetry  counter table + latency histogram; metrics.json, trace.json (Chrome trace)
//	critpath   per-cause critical-path attribution; critpath.json (Chrome trace)
//	profile    virtual-time CPU profile, folded stacks; profile.folded, profile.json
//	series     utilization time-series; series.json, series.csv
//	ledger     data-touch audit table and copy-count oracle; ledger.json, flightrec.json
//	netobs     congestion postmortem; netobs.json, netobs-chrome.json
//	engine     simulator meta-profile (events by kind, allocs/event)
//	pprof      pprof profiles of the simulator process; cpu.pprof, mem.pprof
//
// The ledger's oracle is checked for TCP: single-copy mode must show
// exactly one checksum-in-flight host-bus DMA and zero CPU touches per
// sender byte; a violation exits 1. The folded profile feeds
// flamegraph.pl DIR/profile.folded. flightrec.json carries recent trace
// events only when telemetry is selected too.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hippi"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// parseSize accepts 64K / 4M / 512 style sizes.
func parseSize(s string) (units.Size, error) {
	mult := units.Size(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = units.KB, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = units.MB, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return units.Size(n) * mult, nil
}

func main() {
	mode := flag.String("mode", "single", "stack: single, unmodified, raw")
	proto := flag.String("proto", "tcp", "transport: tcp, udp")
	sizeS := flag.String("size", "64K", "read/write size")
	totalS := flag.String("total", "16M", "bytes to transfer")
	windowS := flag.String("window", "512K", "TCP window / socket buffer")
	machine := flag.String("machine", "alpha400", "host model: alpha400, alpha300")
	lazy := flag.Bool("lazy", false, "enable the lazy-unpin buffer cache")
	faultPlan := flag.String("fault", "", "fault plan, e.g. 'drop:every=13,min=1000;corrupt:p=0.01' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	obsList := flag.String("obs", "", "observers to turn on, comma-separated: "+strings.Join(core.ObsNames(), ","))
	obsDir := flag.String("obs-dir", "", "write each selected observer's files to this directory")
	flag.Parse()

	sel, err := core.ParseObs(*obsList, *obsDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcp:", err)
		os.Exit(2)
	}
	size, err := parseSize(*sizeS)
	die(err)
	total, err := parseSize(*totalS)
	die(err)
	window, err := parseSize(*windowS)
	die(err)

	mach := cost.Alpha400
	if *machine == "alpha300" {
		mach = cost.Alpha300
	}

	tb := core.NewTestbed(1)
	die(sel.Start(tb))
	var inj *fault.Injector
	if *faultPlan != "" {
		inj = fault.New(tb.Eng, *faultSeed)
		die(inj.AddPlan(*faultPlan))
		tb.EnableFaults(inj)
	}
	params := ttcp.Params{
		Total: total, RWSize: size, Window: window,
		WithUtil: true, WithBackground: true,
		// Under fault injection a connection may legitimately die
		// (adaptor reset, partition): surface the typed error in the
		// report instead of panicking.
		Tolerant: inj != nil,
	}

	m := socket.ModeSingleCopy
	if *mode == "unmodified" {
		m = socket.ModeUnmodified
	}
	raw := *mode == "raw"
	host := func(name string, addr wire.Addr, node hippi.NodeID) *core.Host {
		if raw {
			return tb.AddHost(core.HostConfig{Name: name, Addr: addr, Mach: mach(), CABNode: node, NoDriver: true})
		}
		return tb.AddHost(core.HostConfig{Name: name, Addr: addr, Mach: mach(), Mode: m, CABNode: node, LazyUnpin: *lazy})
	}
	a, b := host("snd", 0x0a000001, 1), host("rcv", 0x0a000002, 2)
	switch {
	case raw:
		printResult(*mode, mach().Name, size, window, ttcp.RunRaw(tb, a, b, params))
	case *proto == "udp":
		tb.RouteCAB(a, b)
		ur := ttcp.RunUDP(tb, a, b, params)
		fmt.Printf("ttcp -u (%s stack, %s, %v datagrams)\n", *mode, mach().Name, size)
		fmt.Printf("  sent %v, received %v (loss %.2f%%) in %v\n",
			ur.Sent, ur.Received, 100*ur.LossFraction, ur.Elapsed)
		fmt.Printf("  throughput   %.1f Mb/s\n", ur.Throughput.Mbit())
		fmt.Printf("  sender       util %.2f  efficiency %.1f Mb/s\n",
			ur.Snd.Utilization, ur.Snd.Efficiency.Mbit())
		fmt.Printf("  receiver     util %.2f  efficiency %.1f Mb/s\n",
			ur.Rcv.Utilization, ur.Rcv.Efficiency.Mbit())
	default:
		tb.RouteCAB(a, b)
		printResult(*mode, mach().Name, size, window, ttcp.Run(tb, a, b, params))
	}
	if inj != nil {
		fmt.Printf("  %s\n", inj.Report())
	}
	die(sel.Write(os.Stdout, tb.Observed()))
	if tb.Led != nil {
		audit(tb.Led, total, *proto == "tcp" && !raw, m, *faultPlan == "")
	}
}

func printResult(mode, machName string, size, window units.Size, res ttcp.Result) {
	fmt.Printf("ttcp (%s stack, %s, %v writes, %v window)\n", mode, machName, size, window)
	fmt.Printf("  transferred  %v in %v\n", res.Bytes, res.Elapsed)
	if res.SndErr != "" || res.RcvErr != "" {
		fmt.Printf("  flow ended under fault: snd=%q rcv=%q\n", res.SndErr, res.RcvErr)
	}
	fmt.Printf("  throughput   %.1f Mb/s\n", res.Throughput.Mbit())
	fmt.Printf("  sender       util %.2f (true %.2f)  efficiency %.1f Mb/s\n",
		res.Snd.Utilization, res.Snd.TrueUtilization, res.Snd.Efficiency.Mbit())
	fmt.Printf("  receiver     util %.2f (true %.2f)  efficiency %.1f Mb/s\n",
		res.Rcv.Utilization, res.Rcv.TrueUtilization, res.Rcv.Efficiency.Mbit())
	fmt.Printf("  sender CPU breakdown:\n")
	for _, cat := range []string{"copy", "csum", "vm", "proto", "driver", "intr", "syscall", "app"} {
		if d, ok := res.Snd.Breakdown[cat]; ok {
			fmt.Printf("    %-8s %v\n", cat, d)
		}
	}
}

// audit prints the data-touch table of the transfer's flow and, for TCP,
// checks the stack's copy-count oracle; a violation exits 1. strict is
// off under fault injection, where retransmitted bytes may legitimately
// cross the sender's bus again.
func audit(led *ledger.Ledger, total units.Size, tcp bool, m socket.Mode, strict bool) {
	flow := led.MainFlow()
	fmt.Print("\n" + led.Summary(flow, total, []string{"snd", "wire", "rcv"}).Format())
	if !tcp {
		fmt.Println("  oracle: skipped (TCP flows only)")
		return
	}
	check := led.AssertSingleCopy
	if m == socket.ModeUnmodified {
		check = led.AssertMultiCopy
	}
	if err := check(ledger.AuditConfig{Flow: flow, Total: total,
		SndHost: "snd", RcvHost: "rcv", Strict: strict}); err != nil {
		fmt.Fprintln(os.Stderr, "ttcp: audit:", err)
		os.Exit(1)
	}
	fmt.Println("  oracle: ok")
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcp:", err)
		os.Exit(1)
	}
}
