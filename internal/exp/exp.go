// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the simulator and formats them as
// the paper reports them (throughput, utilization, and efficiency as a
// function of read/write size; the VM cost table; the Section 7.3
// analysis; the taxonomy; and the head-of-line-blocking study).
package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/obs"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// Point is one measurement at one read/write size.
type Point struct {
	RWSize      units.Size
	Throughput  units.Rate
	Utilization float64 // sender, util methodology
	Efficiency  units.Rate
}

// Figure is one family of curves (Figure 5 or 6).
type Figure struct {
	Name    string
	Machine string
	Sizes   []units.Size
	// Series maps curve name → points (Unmodified, Modified, RawHIPPI).
	Series map[string][]Point
	Order  []string
}

// DefaultSizes is the x axis of Figures 5 and 6: 1 KB to 512 KB.
func DefaultSizes() []units.Size {
	var sizes []units.Size
	for s := 1 * units.KB; s <= 512*units.KB; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// totalFor picks a transfer size that gives steady-state measurements
// without excessive simulation time.
func totalFor(rw units.Size) units.Size {
	t := 256 * rw
	if t < 2*units.MB {
		t = 2 * units.MB
	}
	if t > 16*units.MB {
		t = 16 * units.MB
	}
	// Whole multiple of the write size.
	return (t + rw - 1) / rw * rw
}

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
)

// stackPoint measures one (machine, mode, size) cell with a fresh testbed.
func stackPoint(mach func() *cost.Machine, mode socket.Mode, rw units.Size, seed int64) Point {
	tb := core.NewTestbed(seed)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: mach(), Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: mach(), Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	res := ttcp.Run(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw,
		WithUtil: true, WithBackground: true,
	})
	return Point{
		RWSize:      rw,
		Throughput:  res.Throughput,
		Utilization: res.Snd.Utilization,
		Efficiency:  res.Snd.Efficiency,
	}
}

// rawPoint measures the raw-HIPPI baseline at one size.
func rawPoint(mach func() *cost.Machine, rw units.Size, seed int64) Point {
	tb := core.NewTestbed(seed)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: mach(), CABNode: 1, NoDriver: true})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: mach(), CABNode: 2, NoDriver: true})
	res := ttcp.RunRaw(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw, WithUtil: true,
	})
	return Point{
		RWSize:      rw,
		Throughput:  res.Throughput,
		Utilization: res.Snd.Utilization,
		Efficiency:  res.Snd.Efficiency,
	}
}

// RunFigure produces the three curves of Figure 5/6 for one machine.
func RunFigure(name string, mach func() *cost.Machine, sizes []units.Size) Figure {
	if sizes == nil {
		sizes = DefaultSizes()
	}
	fig := Figure{
		Name:    name,
		Machine: mach().Name,
		Sizes:   sizes,
		Series:  make(map[string][]Point),
		Order:   []string{"Unmodified", "Modified", "RawHIPPI"},
	}
	for i, rw := range sizes {
		seed := int64(1000 + i)
		fig.Series["Unmodified"] = append(fig.Series["Unmodified"],
			stackPoint(mach, socket.ModeUnmodified, rw, seed))
		fig.Series["Modified"] = append(fig.Series["Modified"],
			stackPoint(mach, socket.ModeSingleCopy, rw, seed))
		fig.Series["RawHIPPI"] = append(fig.Series["RawHIPPI"],
			rawPoint(mach, rw, seed))
	}
	return fig
}

// MetricsRun runs one instrumented Figure-5-style cell (single-copy stack,
// Alpha 3000/400) and returns the full telemetry snapshot. Deterministic:
// the same (rw, seed) always yields byte-identical Snapshot.JSON().
func MetricsRun(rw units.Size, seed int64) obs.Snapshot {
	tb := core.NewTestbed(seed)
	tb.EnableTelemetry()
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: cost.Alpha400(),
		Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: cost.Alpha400(),
		Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw,
		WithUtil: true, WithBackground: true,
	})
	return tb.Tel.Snapshot()
}

// ProfileRun runs one instrumented Figure-5-style cell with the
// virtual-time profiler enabled (mode selects the stack) and returns the
// testbed, whose Prof holds the exact per-stack CPU attribution.
// Deterministic: the same (mode, rw, seed) always yields byte-identical
// Prof.Folded().
func ProfileRun(mode socket.Mode, rw units.Size, seed int64) *core.Testbed {
	tb := core.NewTestbed(seed)
	tb.EnableProfiling()
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: cost.Alpha400(),
		Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: cost.Alpha400(),
		Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw,
		WithUtil: true, WithBackground: true,
	})
	return tb
}

// SeriesRun runs one instrumented cell with the utilization time-series
// sampler on, and returns the testbed whose Series holds the recorded rows.
func SeriesRun(rw units.Size, seed int64) *core.Testbed {
	tb := core.NewTestbed(seed)
	tb.EnableSeries()
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: cost.Alpha400(),
		Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: cost.Alpha400(),
		Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw,
		WithUtil: true, WithBackground: true,
	})
	return tb
}

// Figure5 regenerates Figure 5 (Alpha 3000/400).
func Figure5(sizes []units.Size) Figure {
	return RunFigure("Figure 5", cost.Alpha400, sizes)
}

// Figure6 regenerates Figure 6 (Alpha 3000/300LX).
func Figure6(sizes []units.Size) Figure {
	return RunFigure("Figure 6", cost.Alpha300, sizes)
}

// Crossover returns the read/write size at which the modified stack's
// efficiency overtakes the unmodified stack's (the paper: between 8 and
// 16 KByte).
func (f Figure) Crossover() (units.Size, bool) {
	un, mod := f.Series["Unmodified"], f.Series["Modified"]
	for i := range un {
		if mod[i].Efficiency > un[i].Efficiency {
			return un[i].RWSize, true
		}
	}
	return 0, false
}

// Format renders the figure as three paper-style tables.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (TCP window 512KB, MTU 32KB)\n", f.Name, f.Machine)
	metric := []struct {
		title string
		get   func(Point) string
	}{
		{"(a) Throughput (Mb/s)", func(p Point) string { return fmt.Sprintf("%8.1f", p.Throughput.Mbit()) }},
		{"(b) Utilization (sender)", func(p Point) string { return fmt.Sprintf("%8.2f", p.Utilization) }},
		{"(c) Efficiency (Mb/s)", func(p Point) string { return fmt.Sprintf("%8.1f", p.Efficiency.Mbit()) }},
	}
	for _, m := range metric {
		fmt.Fprintf(&b, "\n%s\n", m.title)
		fmt.Fprintf(&b, "%-12s", "r/w size")
		for _, s := range f.Order {
			if _, ok := f.Series[s]; ok {
				fmt.Fprintf(&b, "%12s", s)
			}
		}
		fmt.Fprintln(&b)
		for i, sz := range f.Sizes {
			fmt.Fprintf(&b, "%-12v", sz)
			for _, s := range f.Order {
				pts, ok := f.Series[s]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "%12s", m.get(pts[i]))
			}
			fmt.Fprintln(&b)
		}
	}
	if x, ok := f.Crossover(); ok {
		fmt.Fprintf(&b, "\nEfficiency crossover at %v (paper: between 8KB and 16KB)\n", x)
	}
	return b.String()
}

// HOLResult pairs the two queuing disciplines of the Section 2.1 study.
type HOLResult struct {
	Ports               int
	FIFOUtilization     float64
	ChannelsUtilization float64
}

// RunHOL reproduces the head-of-line-blocking comparison.
func RunHOL(ports, slots int, seed int64) HOLResult {
	return HOLResult{
		Ports:               ports,
		FIFOUtilization:     hippi.RunFIFO(ports, slots, seed).Utilization,
		ChannelsUtilization: hippi.RunLogicalChannels(ports, slots, seed).Utilization,
	}
}

// FormatHOL renders the HOL study.
func FormatHOL(rs []HOLResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Head-of-line blocking (Section 2.1; paper cites ≤58%% for FIFO)\n")
	fmt.Fprintf(&b, "%-8s %14s %20s\n", "ports", "FIFO util", "logical channels")
	sort.Slice(rs, func(i, j int) bool { return rs[i].Ports < rs[j].Ports })
	for _, r := range rs {
		fmt.Fprintf(&b, "%-8d %14.3f %20.3f\n", r.Ports, r.FIFOUtilization, r.ChannelsUtilization)
	}
	return b.String()
}

// jsonPoint is one measurement in the machine-readable figure export.
type jsonPoint struct {
	RWSizeBytes    int64   `json:"rwsize_bytes"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	Utilization    float64 `json:"utilization"`
	EfficiencyMbps float64 `json:"efficiency_mbps"`
}

// jsonSeries is one curve.
type jsonSeries struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

// jsonFigure is the machine-readable figure envelope.
type jsonFigure struct {
	Name    string       `json:"name"`
	Machine string       `json:"machine"`
	Series  []jsonSeries `json:"series"`
}

// JSON renders the figure as deterministic JSON: series in Order (slices,
// not the Series map), so identical runs produce identical bytes.
func (f Figure) JSON() []byte {
	jf := jsonFigure{Name: f.Name, Machine: f.Machine}
	for _, s := range f.Order {
		pts, ok := f.Series[s]
		if !ok {
			continue
		}
		js := jsonSeries{Name: s, Points: []jsonPoint{}}
		for _, p := range pts {
			js.Points = append(js.Points, jsonPoint{
				RWSizeBytes:    int64(p.RWSize),
				ThroughputMbps: p.Throughput.Mbit(),
				Utilization:    p.Utilization,
				EfficiencyMbps: p.Efficiency.Mbit(),
			})
		}
		jf.Series = append(jf.Series, js)
	}
	b, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		panic("exp: figure marshal: " + err.Error())
	}
	return append(b, '\n')
}

// CSV renders the figure as plot-ready rows:
// series,rwsize_bytes,throughput_mbps,utilization,efficiency_mbps.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "series,rwsize_bytes,throughput_mbps,utilization,efficiency_mbps")
	for _, s := range f.Order {
		pts, ok := f.Series[s]
		if !ok {
			continue
		}
		for _, p := range pts {
			fmt.Fprintf(&b, "%s,%d,%.2f,%.4f,%.2f\n",
				s, int64(p.RWSize), p.Throughput.Mbit(), p.Utilization, p.Efficiency.Mbit())
		}
	}
	return b.String()
}
