// Command perfbench is the repository's end-to-end benchmark: it runs one
// seeded workload through the simulator's public entry points for a fixed
// wall-clock budget, checks every repetition's virtual-time results
// against the committed references, and prints the host cost of the run
// (CPU time, heap allocation, resident memory) as one JSON object on the
// last line of standard output.
//
// Usage:
//
//	perfbench --workload fig5-sweep|stream-64k|rr-1024|incast-obs \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics with every observer
// off, running each repetition in a fresh child process of its own
// (--child). With --trace 1 it instead runs the per-layer probes, attaches the
// engine observer and the public counters, profiles the CPU, and reports
// per-layer metrics. README.md maps each layer metric to the end-to-end
// metric and workload it should move. Run it through run.py, which builds
// this package first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is the outcome of one repetition of a workload.
type rep struct {
	payload int64         // simulated payload bytes delivered and verified
	setup   time.Duration // CPU time from testbed start to first dispatched event, summed (0: not observable)
	ident   string        // virtual-time results; equal across repetitions of one seed
}

// workload is one benchmark input. run executes one repetition; with a
// non-nil tracer it attaches the observers and adds the layer counters
// to it.
type workload struct {
	name string
	ops  int // operations (sweep cells, transfers, flows) per repetition
	run  func(tr *tracer) (rep, error)
	// setupProbe measures set-up time separately, for workloads whose
	// repetitions run through load.Run, which does not expose the moment
	// its engine starts dispatching.
	setupProbe func() time.Duration
}

func main() {
	name := flag.String("workload", "", "workload: fig5-sweep, stream-64k, rr-1024 or incast-obs")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	child := flag.String("child", "", "internal: run one repetition (rep) or one set-up probe (setup) and print its measurement")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w, err := newWorkload(*name, *seed, refs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(runChild(w, *child))
	}
	fmt.Printf("env go=%s GOMAXPROCS=%d nproc=%d workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), w.name, *seed, *seconds, *trace)

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res = tracedRun(w, budget)
	} else {
		res = endToEndRun(w, *seed, budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runRep runs one repetition, turning a panic inside the simulation (an
// incomplete transfer, a broken invariant) into an error.
func runRep(w *workload, tr *tracer) (r rep, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return w.run(tr)
}

// tally counts operations and checks cross-repetition identity.
type tally struct {
	attempted, failed int
	ident             string
}

// add books one repetition with its virtual results; it reports whether
// the repetition passed.
func (t *tally) add(w *workload, ident string, err error) bool {
	t.attempted += w.ops
	if err == nil && t.ident != "" && ident != t.ident {
		err = fmt.Errorf("virtual results differ between repetitions of one seed:\n  %s\n  %s", t.ident, ident)
	}
	if err != nil {
		t.failed += w.ops
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return false
	}
	t.ident = ident
	return true
}

// measurement is what one child process reports: one repetition, or
// one set-up probe (Setup only).
type measurement struct {
	Payload    int64   `json:"payload"`
	CPU        float64 `json:"cpu_s"`   // the repetition, set-up included
	Setup      float64 `json:"setup_s"` // CPU time of the set-up part
	Wall       float64 `json:"wall_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Ident      string  `json:"ident"`
	Err        string  `json:"err,omitempty"`
}

// runChild is a child process's whole life: one repetition of the
// workload, or one set-up probe, measured from a fresh process and
// printed as one JSON line.
func runChild(w *workload, mode string) int {
	var m measurement
	switch mode {
	case "rep":
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuTime()
		r, err := runRep(w, nil)
		m.Wall, m.CPU = time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		runtime.ReadMemStats(&ms1)
		m.Payload, m.Setup, m.Ident = r.payload, r.setup.Seconds(), r.ident
		m.AllocBytes, m.Mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
		if err != nil {
			m.Err = err.Error()
		}
	case "setup":
		m.Setup = w.setupProbe().Seconds()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", mode)
		return 2
	}
	m.PeakRSSMB = peakRSSMB()
	b, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// spawn runs one child process and returns its measurement.
func spawn(w *workload, seed int64, mode string) (measurement, error) {
	var m measurement
	exe, err := os.Executable()
	if err != nil {
		return m, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--child", mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return m, fmt.Errorf("child %s: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		return m, fmt.Errorf("child %s output: %w", mode, err)
	}
	return m, nil
}

// childTimeout bounds one child process; the longest repetition takes
// about five seconds.
const childTimeout = 120 * time.Second

// endToEndRun runs the workload once per child process, with every
// observer off, until the budget is spent (at least three repetitions),
// and reports medians over the repetitions. A fresh process per
// repetition gives each the heap and the peak resident set of a process
// that ran the workload once, which is how users run it.
func endToEndRun(w *workload, seed int64, budget time.Duration) result {
	var (
		t                             tally
		mbps, setups, bpb, perKB, rss []float64
		wallMBps                      []float64
	)
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		m, err := spawn(w, seed, "rep")
		if err == nil && m.Err != "" {
			err = errors.New(m.Err)
		}
		if err == nil && m.Payload <= 0 {
			err = errors.New("no payload delivered")
		}
		if !t.add(w, m.Ident, err) {
			continue
		}
		if w.setupProbe == nil {
			setups = append(setups, m.Setup)
		}
		p := float64(m.Payload)
		mbps = append(mbps, p/1e6/(m.CPU-m.Setup))
		wallMBps = append(wallMBps, p/1e6/m.Wall)
		bpb = append(bpb, float64(m.AllocBytes)/p)
		perKB = append(perKB, float64(m.Mallocs)/(p/1024))
		rss = append(rss, m.PeakRSSMB)
	}
	if w.setupProbe != nil {
		for i := 0; i < setupProbes; i++ {
			m, err := spawn(w, seed, "setup")
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: set-up probe: %v\n", w.name, err)
				t.failed = max(t.failed, 1)
				break
			}
			setups = append(setups, m.Setup)
		}
	}
	res := result{Correct: t.failed == 0 && len(mbps) > 0 && len(setups) > 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if !res.Correct {
		res.Failed = max(res.Failed, 1)
		return res
	}
	res.Metrics = map[string]metric{
		"payload_mb_per_cpu_s":         {median(mbps), "MB/cpu-s"},
		"setup_s":                      {median(setups), "s"},
		"alloc_bytes_per_payload_byte": {median(bpb), "B/B"},
		"allocs_per_payload_kb":        {median(perKB), "objects/KB"},
		"peak_rss_mb":                  {mean(rss), "MB"},
	}
	fmt.Printf("reps=%d payload_mb_per_cpu_s=%.2f setup_s=%.4f peak_rss_mb=%.1f\n", len(mbps), mbps, setups, rss)
	fmt.Printf("wall-clock payload MB/s, set-up included (not a metric): %.2f\n", wallMBps)
	return res
}

// setupProbes is the number of set-up probes on workloads that need them.
const setupProbes = 7

// cpuTime returns the CPU time (user and system, all threads) the process
// has used. The benchmark reports CPU rather than wall time because the
// simulator is single-threaded and wall time on a shared virtual machine
// carries the hypervisor's steal time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean. Peak RSS uses it instead of the
// median: a process's peak is bimodal on where the collector's cycles
// fall between large allocations, and the mean follows how often each
// mode occurs where the median would jump between them.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB
// (10^6 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}
