// Command benchdiff is the perf-regression gate: it compares freshly
// generated BENCH_*.json figure files against the committed baselines and
// fails when any numeric leaf drifts outside tolerance. The simulator is
// deterministic, so on unchanged code the files match byte-for-byte; the
// tolerances only leave room for intentional small recalibrations.
//
// Usage:
//
//	benchdiff -baseline . -fresh /tmp/bench [-rel 0.05] [-abs 1e-6] [files...]
//
// With no file arguments it checks every BENCH_*.json in the baseline
// directory; a baseline with no fresh counterpart is a violation, so a
// generator that stops writing a file fails the gate. Touch-count files
// hold exact integer counts (copies, checksums, DMA crossings per byte),
// so they get zero tolerance: any drift in a data-touch count is a real
// behavior change, never noise; the critical-path file's per-cause
// nanoseconds are pure functions of the virtual event sequence and get
// the same treatment.
// The load file's throughput and latency leaves get the relative
// tolerance; its structure, flow counts, and order digests (strings) are
// compared exactly, so the gate still pins event-ordering determinism.
//
// Every file's verdict line carries its comparison coverage —
// "N exact / N tolerant / N advisory fields compared" — so a gate that
// quietly stops comparing anything is visible at a glance.
//
// Fields under a JSON key named "advisory" (or prefixed "advisory_") form
// a separate class: wall-clock and allocation measurements whose values
// depend on the machine and Go version. Their numeric drift is printed
// ("adv" lines) but never fails the gate; only structural drift — an
// advisory field disappearing — is a violation. This is what lets
// BENCH_sim.json commit real events/sec and allocs/op numbers without
// making CI flake on scheduler noise.
//
// Exit status 1 means at least one file regressed; each violation is
// printed with its JSON path and percentage drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Default tolerances. The gate protects fractional leaves (utilization,
// category shares, all in [0,1]) as strictly as large ones, so the
// absolute term only absorbs float formatting noise — the simulator is
// deterministic and unchanged code reproduces the baselines exactly.
const (
	defaultRel = 0.05
	defaultAbs = 1e-6
)

// exactFiles are baselines of exact integer counts: compared with zero
// tolerance regardless of -rel/-abs. BENCH_sim.json's deterministic
// sections are pure functions of the virtual event sequence, so any
// drift is a real change in how much work the simulator does; its
// advisory sections are exempted by class, not by tolerance.
var exactFiles = map[string]bool{
	"BENCH_touches.json":  true,
	"BENCH_sim.json":      true,
	"BENCH_critpath.json": true,
	// The recovery baseline's virtual-time fields (injection schedule,
	// first-goodput, flow fates) are pure functions of the seeded event
	// sequence; only its "advisory" wall time is machine-dependent.
	"BENCH_recover.json": true,
	// The transport-dynamics postmortems (verdicts, retransmission
	// taxonomy, wire busy per-mille, series digests) are deterministic
	// functions of the seeded fairness pair; any drift is a congestion-
	// behavior change.
	"BENCH_netobs.json": true,
	// The fabric baseline (topology/ECMP/congestion-control comparison)
	// is a pure function of its seeded scenarios: byte counts, trunk
	// shares, verdict censuses, and order digests must not drift.
	"BENCH_fabric.json": true,
}

func main() {
	baseDir := flag.String("baseline", ".", "directory holding the committed BENCH_*.json baselines")
	freshDir := flag.String("fresh", "", "directory holding the freshly generated BENCH_*.json files")
	rel := flag.Float64("rel", defaultRel, "relative tolerance per numeric leaf")
	abs := flag.Float64("abs", defaultAbs, "absolute tolerance per numeric leaf")
	flag.Parse()

	if *freshDir == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -fresh is required")
		os.Exit(2)
	}
	if !gate(os.Stdout, os.Stderr, *baseDir, *freshDir, *rel, *abs, flag.Args()) {
		os.Exit(1)
	}
}

// gate diffs each named file (every BENCH_*.json in baseDir when files is
// empty) and prints one verdict line per file to out; unreadable files
// are reported on errOut. It reports whether every file passed.
func gate(out, errOut io.Writer, baseDir, freshDir string, rel, abs float64, files []string) bool {
	if len(files) == 0 {
		files, _ = filepath.Glob(filepath.Join(baseDir, "BENCH_*.json"))
		for i, f := range files {
			files[i] = filepath.Base(f)
		}
		if len(files) == 0 {
			fmt.Fprintf(errOut, "benchdiff: no BENCH_*.json baselines in %s\n", baseDir)
			return false
		}
	}

	load := func(path string) (any, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return v, nil
	}

	ok := true
	for _, f := range files {
		base, err := load(filepath.Join(baseDir, f))
		if err != nil {
			fmt.Fprintf(errOut, "benchdiff: baseline: %v\n", err)
			ok = false
			continue
		}
		fresh, err := load(filepath.Join(freshDir, f))
		if err != nil {
			fmt.Fprintf(errOut, "benchdiff: fresh: %v\n", err)
			ok = false
			continue
		}
		fileRel, fileAbs := rel, abs
		if exactFiles[f] {
			fileRel, fileAbs = 0, 0
		}
		diff := Compare(f, base, fresh, fileRel, fileAbs)
		fmt.Fprintln(out, diff.Summary(f))
		if len(diff.Violations) > 0 {
			ok = false
			for _, v := range diff.Violations {
				fmt.Fprintf(out, "  %s\n", v)
			}
		}
		for _, a := range diff.Advisories {
			fmt.Fprintf(out, "  adv  %s\n", a)
		}
	}
	return ok
}
