// Command experiments regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	experiments -exp fig5|fig6|fig7|fig8|fig9|table1|table2|analysis|hol|window|lazy|threshold|chaos|touches|load|simbench|critpath|recover|netobs|fabric|all
//	experiments -exp fig5 -quick   # fewer sizes, faster
//	experiments -exp bench         # regenerate every BENCH_*.json baseline
//	experiments -exp simbench -cpuprofile cpu.pprof   # profile the simulator itself
//
// Every experiment that owns a committed BENCH_*.json file is one row of
// the benches table; -exp bench runs every row at the full grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/taxonomy"
	"repro/internal/units"
)

// report is what a BENCH row produces: the baseline bytes and a table.
type report interface {
	JSON() []byte
	Format() string
}

// bench is one row of the experiment table: the experiment name, the
// BENCH file it owns, and how to run it. run may return a report together
// with an error (an oracle that failed over a complete report); the report
// is still printed and written before the error fails the command.
type bench struct {
	name, file string
	run        func(quick bool) (report, error)
}

// quickSizes is the reduced -quick sweep for the figure rows.
var quickSizes = []units.Size{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB}

func sweep(quick bool) []units.Size {
	if quick {
		return quickSizes
	}
	return exp.DefaultSizes()
}

// ok adapts a (value, error) result whose value is meaningless on error.
func ok[T report](v T, err error) (report, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// bd caches the Figure 7–9 family: one sweep feeds all three rows.
var bd struct {
	done, quick bool
	f7, f8      exp.BreakdownFigure
	f9          exp.DecompFigure
}

func breakdowns(quick bool) (exp.BreakdownFigure, exp.BreakdownFigure, exp.DecompFigure) {
	if !bd.done || bd.quick != quick {
		bd.f7, bd.f8, bd.f9 = exp.RunBreakdowns(sweep(quick))
		bd.done, bd.quick = true, quick
	}
	return bd.f7, bd.f8, bd.f9
}

var benches = []bench{
	{"fig5", "BENCH_fig5.json", func(q bool) (report, error) { return exp.Figure5(sweep(q)), nil }},
	{"fig6", "BENCH_fig6.json", func(q bool) (report, error) { return exp.Figure6(sweep(q)), nil }},
	{"fig7", "BENCH_fig7.json", func(q bool) (report, error) { f, _, _ := breakdowns(q); return f, nil }},
	{"fig8", "BENCH_fig8.json", func(q bool) (report, error) { _, f, _ := breakdowns(q); return f, nil }},
	{"fig9", "BENCH_fig9.json", func(q bool) (report, error) { _, _, f := breakdowns(q); return f, nil }},
	// The single-copy auditor: the report is complete even when an
	// oracle fails, so it is written before the command exits 1.
	{"touches", "BENCH_touches.json", func(bool) (report, error) { return exp.RunTouches(1) }},
	{"load", "BENCH_load.json", func(bool) (report, error) { return ok(exp.RunLoadBench()) }},
	{"simbench", "BENCH_sim.json", func(q bool) (report, error) { return ok(exp.RunSimBench(q)) }},
	{"critpath", "BENCH_critpath.json", func(q bool) (report, error) { return ok(exp.RunCritPath(q)) }},
	{"recover", "BENCH_recover.json", func(bool) (report, error) { return ok(exp.RunRecoverBench()) }},
	{"netobs", "BENCH_netobs.json", func(bool) (report, error) { return ok(exp.RunNetObs()) }},
	{"fabric", "BENCH_fabric.json", func(bool) (report, error) { return ok(exp.RunFabric()) }},
}

func main() {
	which := flag.String("exp", "all", "experiment: fig5..fig9, table1, table2, analysis, hol, window, lazy, threshold, chaos, touches, load, simbench, critpath, recover, netobs, fabric, bench, all")
	quick := flag.Bool("quick", false, "use a reduced size sweep for the figures")
	csv := flag.Bool("csv", false, "emit figures as CSV instead of tables")
	metricsOut := flag.String("metrics", "", "write a telemetry snapshot of one instrumented transfer to this JSON file")
	benchDir := flag.String("benchdir", ".", "directory for the BENCH_*.json perf-trajectory files")
	cpuProf := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProf := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *memProf)
		}()
	}

	// runBench runs one table row, prints its table (unless quiet), and
	// records its BENCH file so later changes have a trajectory to diff.
	runBench := func(b bench, quick, quiet bool) {
		rep, err := b.run(quick)
		if rep != nil {
			if f, isFig := rep.(exp.Figure); !quiet && isFig && *csv {
				fmt.Print(f.CSV())
			} else if !quiet {
				fmt.Println(rep.Format())
			}
			path := filepath.Join(*benchDir, b.file)
			if err := os.WriteFile(path, rep.JSON(), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b.name, err)
			os.Exit(1)
		}
	}

	run := func(name string) {
		for _, b := range benches {
			if b.name == name {
				runBench(b, *quick, false)
				return
			}
		}
		switch name {
		case "bench":
			// Every baseline at the full grid, regardless of -quick: the
			// committed files and the gate must agree on the grid.
			for _, b := range benches {
				runBench(b, false, true)
			}
		case "table1":
			fmt.Println(taxonomy.Format())
		case "table2":
			fmt.Println(exp.FormatTable2(exp.MeasureTable2()))
		case "analysis":
			fmt.Println("Section 7.3 analytic estimates (Alpha 3000/400, 32KB packets):")
			for _, e := range analysis.PaperTable() {
				fmt.Println("  " + e.String())
			}
			fmt.Println()
		case "hol":
			rs := []exp.HOLResult{
				exp.RunHOL(2, 20000, 1),
				exp.RunHOL(8, 20000, 2),
				exp.RunHOL(32, 20000, 3),
			}
			fmt.Println(exp.FormatHOL(rs))
		case "window":
			fmt.Println(exp.FormatWindowSweep(exp.RunWindowSweep(nil)))
		case "lazy":
			fmt.Println(exp.FormatLazyPin(exp.RunLazyPinAblation()))
		case "threshold":
			fmt.Println(exp.FormatThreshold(exp.RunThresholdAblation(nil)))
		case "chaos":
			rs := exp.RunChaos()
			fmt.Println(exp.FormatChaos(rs))
			if exp.ChaosFailed(rs) {
				fmt.Fprintln(os.Stderr, "chaos: invariant violations")
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *metricsOut != "" {
		snap := exp.MetricsRun(64*units.KB, 1)
		if err := os.WriteFile(*metricsOut, snap.JSON(), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}

	if *which == "all" {
		for _, name := range []string{"table1", "table2", "analysis", "hol", "window", "lazy", "threshold", "fig5", "fig6", "fig7", "fig8", "fig9"} {
			fmt.Printf("=== %s ===\n", name)
			run(name)
		}
		return
	}
	run(*which)
}
