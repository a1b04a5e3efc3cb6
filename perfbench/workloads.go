package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/hippi"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// Canonical seeds: with these, every repetition is checked against the
// committed references. Other seeds check errors, audits and identity of
// the virtual results across the repetitions of the run.
const (
	streamSeed = 1
	rrSeed     = 9 // BENCH_sim.json load-1024
	incastSeed = 7 // BENCH_fabric.json incast_reno
)

// refs holds the committed reference results. The Figure 5 points, the
// incast result and the traced event count come from the repository's
// BENCH_*.json files; expect.json adds the values no BENCH file records.
type refs struct {
	fig5 map[string][]fig5Point // series name → points in size order
	// incast is BENCH_fabric.json incast_reno.
	incast struct {
		TotalBytes  int64   `json:"total_bytes"`
		Jain        float64 `json:"jain"`
		TrunkDrops  int     `json:"trunk_drops"`
		OrderDigest string  `json:"order_digest"`
		Audit       string  `json:"audit"`
	}
	// rrEvents is BENCH_sim.json load-1024 events_total.
	rrEvents int64
	expect   struct {
		// Stream64kVirtual is stream-64k's virtual result at streamSeed.
		Stream64kVirtual string `json:"stream_64k_virtual"`
		// RR1024Digest is rr-1024's order digest at rrSeed.
		RR1024Digest string `json:"rr_1024_order_digest"`
	}
}

type fig5Point struct {
	RWSize      int64   `json:"rwsize_bytes"`
	Throughput  float64 `json:"throughput_mbps"`
	Utilization float64 `json:"utilization"`
	Efficiency  float64 `json:"efficiency_mbps"`
}

// benchDir is this package's directory, relative to the repository root
// (the working directory the benchmark runs from).
const benchDir = "perfbench"

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadRefs() (*refs, error) {
	r := &refs{fig5: map[string][]fig5Point{}}
	var fig struct {
		Series []struct {
			Name   string      `json:"name"`
			Points []fig5Point `json:"points"`
		} `json:"series"`
	}
	if err := readJSON("BENCH_fig5.json", &fig); err != nil {
		return nil, err
	}
	for _, s := range fig.Series {
		r.fig5[s.Name] = s.Points
	}
	var fab map[string]json.RawMessage
	if err := readJSON("BENCH_fabric.json", &fab); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(fab["incast_reno"], &r.incast); err != nil {
		return nil, fmt.Errorf("BENCH_fabric.json incast_reno: %w", err)
	}
	var sb exp.SimBench
	if err := readJSON("BENCH_sim.json", &sb); err != nil {
		return nil, err
	}
	for _, w := range sb.Workloads {
		if w.Name == "load-1024" {
			r.rrEvents = w.Det.EventsTotal
		}
	}
	if err := readJSON(filepath.Join(benchDir, "expect.json"), &r.expect); err != nil {
		return nil, err
	}
	if r.rrEvents == 0 || r.expect.RR1024Digest == "" || r.expect.Stream64kVirtual == "" {
		return nil, fmt.Errorf("incomplete references")
	}
	return r, nil
}

func newWorkload(name string, seed int64, rf *refs) (*workload, error) {
	switch name {
	case "fig5-sweep":
		return fig5Sweep(seed, rf), nil
	case "stream-64k":
		return stream64k(seed, rf), nil
	case "rr-1024":
		return rr1024(seed, rf), nil
	case "incast-obs":
		return incastObs(seed, rf), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// firstDispatch is an engine monitor that stamps the process CPU time at
// the first dispatched event and then hands the engine to next (the engine
// observer in traced runs, else nobody), so the rest of the run pays
// only the engine's nil check.
type firstDispatch struct {
	eng  *sim.Engine
	next sim.Monitor
	at   time.Duration
}

// watchStart installs a firstDispatch on eng in front of whatever monitor
// the testbed installed.
func watchStart(eng *sim.Engine, next sim.Monitor) *firstDispatch {
	f := &firstDispatch{eng: eng, next: next}
	eng.SetMonitor(f)
	return f
}

func (f *firstDispatch) Scheduled(k sim.Kind, pending int) {
	if f.next != nil {
		f.next.Scheduled(k, pending)
	}
}

func (f *firstDispatch) Dispatched(k sim.Kind, pending int) {
	f.at = cpuTime()
	f.eng.SetMonitor(f.next)
	if f.next != nil {
		f.next.Dispatched(k, pending)
	}
}

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
)

// newPair starts a two-host testbed, with the tracer's observers attached
// when tr is set.
func newPair(seed int64, mode socket.Mode, raw bool, tr *tracer) (*core.Testbed, *core.Host, *core.Host, *firstDispatch) {
	tb := core.NewTestbed(seed)
	var next sim.Monitor
	if tr != nil {
		tr.attach(tb)
		next = tr.eng
	}
	fd := watchStart(tb.Eng, next)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: cost.Alpha400(), Mode: mode, CABNode: 1, NoDriver: raw})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: cost.Alpha400(), Mode: mode, CABNode: 2, NoDriver: raw})
	if !raw {
		tb.RouteCAB(a, b)
	}
	return tb, a, b, fd
}

// fig5Total is the Figure 5 transfer size for one read/write size: 256
// writes, clamped to [2 MB, 16 MB], rounded up to whole writes.
func fig5Total(rw units.Size) units.Size {
	t := min(max(256*rw, 2*units.MB), 16*units.MB)
	return (t + rw - 1) / rw * rw
}

// fig5Sweep is the paper's Figure 5: Alpha 3000/400, read/write sizes
// 1 KB–512 KB, the unmodified stack, the single-copy stack and raw HIPPI,
// each cell on a fresh two-host testbed with the util and background
// procs. The seed shuffles the order of the 30 cells; each cell keeps the
// testbed seed exp.RunFigure gives it, so every cell is checked exactly
// against BENCH_fig5.json whatever the seed.
func fig5Sweep(seed int64, rf *refs) *workload {
	type cell struct {
		series string
		idx    int
		rw     units.Size
	}
	var cells []cell
	for i, rw := range exp.DefaultSizes() {
		for _, s := range []string{"Unmodified", "Modified", "RawHIPPI"} {
			cells = append(cells, cell{s, i, rw})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	run := func(tr *tracer) (rep, error) {
		var r rep
		for _, c := range cells {
			c0 := cpuTime()
			pr := ttcp.Params{Total: fig5Total(c.rw), RWSize: c.rw, WithUtil: true}
			var (
				res ttcp.Result
				tb  *core.Testbed
				fd  *firstDispatch
			)
			if c.series == "RawHIPPI" {
				var a, b *core.Host
				tb, a, b, fd = newPair(int64(1000+c.idx), socket.ModeUnmodified, true, tr)
				res = ttcp.RunRaw(tb, a, b, pr)
			} else {
				mode := socket.ModeUnmodified
				if c.series == "Modified" {
					mode = socket.ModeSingleCopy
				}
				pr.WithBackground = true
				var a, b *core.Host
				tb, a, b, fd = newPair(int64(1000+c.idx), mode, false, tr)
				res = ttcp.Run(tb, a, b, pr)
			}
			r.setup += fd.at - c0
			tr.collect(tb)
			want := rf.fig5[c.series]
			if c.idx >= len(want) {
				return r, fmt.Errorf("BENCH_fig5.json lacks %s point %d", c.series, c.idx)
			}
			got := fig5Point{int64(c.rw), res.Throughput.Mbit(), res.Snd.Utilization, res.Snd.Efficiency.Mbit()}
			if got != want[c.idx] {
				return r, fmt.Errorf("%s %v: got %+v, BENCH_fig5.json has %+v", c.series, c.rw, got, want[c.idx])
			}
			r.payload += int64(res.Bytes)
		}
		r.ident = "fig5 matches BENCH_fig5.json"
		return r, nil
	}
	return &workload{name: "fig5-sweep", ops: len(cells), run: run}
}

// stream64k is one long single-copy ttcp stream, 64 MB in 64 KB writes,
// without the util and background procs: the per-byte layers (CAB SDMA
// and MDMA with checksum-in-flight, checksum) carry the work.
func stream64k(seed int64, rf *refs) *workload {
	const total = 64 * units.MB
	run := func(tr *tracer) (rep, error) {
		c0 := cpuTime()
		tb, a, b, fd := newPair(seed, socket.ModeSingleCopy, false, tr)
		res := ttcp.Run(tb, a, b, ttcp.Params{Total: total, RWSize: 64 * units.KB})
		tr.collect(tb)
		r := rep{payload: int64(res.Bytes), setup: fd.at - c0,
			ident: fmt.Sprintf("bytes=%d elapsed_ns=%d throughput=%v", int64(res.Bytes), int64(res.Elapsed), float64(res.Throughput))}
		if res.Bytes != total {
			return r, fmt.Errorf("delivered %v of %v", res.Bytes, total)
		}
		if seed == streamSeed && r.ident != rf.expect.Stream64kVirtual {
			return r, fmt.Errorf("virtual result %q, expect.json has %q", r.ident, rf.expect.Stream64kVirtual)
		}
		return r, nil
	}
	return &workload{name: "stream-64k", ops: 1, run: run}
}

// rrScenario is the simbench load-1024 shape: 8 clients, 4 servers, 1024
// flows (25% UDP), open-loop Poisson at 2000 requests/s per flow in
// virtual time, single-copy stack, netmem arbiter on.
func rrScenario(seed int64) load.Scenario {
	return load.Scenario{
		Name: "sim-1024", Seed: seed, Clients: 8, Servers: 4, Flows: 1024,
		UDPFrac: 0.25, Mode: socket.ModeSingleCopy, Requests: 2,
		OpenLoop: true, Rate: 2000, Stagger: units.Millisecond,
		Arbiter: &cab.ArbConfig{},
	}
}

// loadWorkload runs a load.Run scenario as a workload. check verifies one
// report against the references.
func loadWorkload(name string, s load.Scenario, check func(*load.Report, *tracer) error) *workload {
	run := func(tr *tracer) (rep, error) {
		sc := s
		if tr != nil {
			sc.EngObs = tr.eng
			sc.NetObs = true
		}
		rp, err := load.Run(sc)
		if err != nil {
			return rep{}, err
		}
		tr.collectLoad(rp)
		r := rep{payload: rp.TotalBytes,
			ident: fmt.Sprintf("digest=%s bytes=%d requests=%d dgrams=%d vtime=%v jain=%v",
				rp.OrderDigest, rp.TotalBytes, rp.Requests, rp.DgramsRcvd, rp.VTimeSec, rp.Jain)}
		if rp.Errors != 0 {
			return r, fmt.Errorf("%d errors, first: %s", rp.Errors, rp.FirstError)
		}
		return r, check(rp, tr)
	}
	return &workload{name: name, ops: s.Flows, run: run, setupProbe: func() time.Duration { return loadSetup(s) }}
}

func rr1024(seed int64, rf *refs) *workload {
	return loadWorkload("rr-1024", rrScenario(seed), func(rp *load.Report, tr *tracer) error {
		if seed != rrSeed {
			return nil
		}
		if rp.OrderDigest != rf.expect.RR1024Digest {
			return fmt.Errorf("order digest %s, expect.json has %s", rp.OrderDigest, rf.expect.RR1024Digest)
		}
		if tr != nil && tr.engEvents() != rf.rrEvents {
			return fmt.Errorf("traced run dispatched %d events, BENCH_sim.json load-1024 has %d", tr.engEvents(), rf.rrEvents)
		}
		return nil
	})
}

// incastObs is exp.FabricIncast("") as committed: leafspine:4x1, Reno,
// 256 KB trunk cap, ledger and netobs on; the seed replaces the
// scenario's seed.
func incastObs(seed int64, rf *refs) *workload {
	s := exp.FabricIncast("")
	s.Seed = seed
	return loadWorkload("incast-obs", s, func(rp *load.Report, _ *tracer) error {
		if rp.Audit != "ok" {
			return fmt.Errorf("single-copy audit: %s", rp.Audit)
		}
		if seed != incastSeed {
			return nil
		}
		want := rf.incast
		if rp.TotalBytes != want.TotalBytes || rp.Jain != want.Jain || rp.TrunkDrops != want.TrunkDrops ||
			rp.OrderDigest != want.OrderDigest || rp.Audit != want.Audit {
			return fmt.Errorf("got bytes=%d jain=%v trunk_drops=%d digest=%s audit=%s, BENCH_fabric.json incast_reno has %+v",
				rp.TotalBytes, rp.Jain, rp.TrunkDrops, rp.OrderDigest, rp.Audit, want)
		}
		return nil
	})
}

// loadSetup stands up a testbed of the scenario's shape through the
// public core API — its hosts, adaptors, arbiter, routes, fabric and one
// workload address space per host sized as load.Run sizes it — and
// returns the CPU time to the first dispatched event.
func loadSetup(s load.Scenario) time.Duration {
	const (
		hdrLen    = 32 * units.Byte // load's message header
		bulkWrite = 32 * units.KB   // load's default BulkWrite
	)
	c0 := cpuTime()
	tb := core.NewTestbed(s.Seed)
	if s.Ledger {
		tb.EnableLedger()
	}
	if s.NetObs {
		tb.EnableNetObs()
	}
	fd := watchStart(tb.Eng, nil)
	var servers, clients []*core.Host
	node := hippi.NodeID(1)
	add := func(name string, addr wire.Addr) *core.Host {
		h := tb.AddHost(core.HostConfig{Name: name, Addr: addr, Mode: s.Mode, CABNode: node,
			CABConfig: s.CABConfig, Arbiter: s.Arbiter, CC: s.CC, MTU: s.MTU})
		node++
		return h
	}
	for j := 0; j < s.Servers; j++ {
		servers = append(servers, add(fmt.Sprintf("S%d", j), 0x0a000001+wire.Addr(j)))
	}
	for j := 0; j < s.Clients; j++ {
		clients = append(clients, add(fmt.Sprintf("C%d", j), 0x0a010001+wire.Addr(j)))
	}
	var srvNodes, cliNodes []hippi.NodeID
	for _, c := range clients {
		cliNodes = append(cliNodes, c.Cfg.CABNode)
		for _, sv := range servers {
			tb.RouteCAB(c, sv)
		}
	}
	if s.Topology != "" {
		for _, sv := range servers {
			srvNodes = append(srvNodes, sv.Cfg.CABNode)
		}
		tp := fabric.MustParse(s.Topology)
		tp.Install(tb.Net, uint64(s.Seed))
		tb.Net.SetPlacement(tp.PlaceRacked(srvNodes, cliNodes))
		if s.QueueCap > 0 {
			tb.Net.SetQueueCap(s.QueueCap)
		}
	}
	// Per-flow buffers: header, the default mix's largest request and
	// response, one bulk write, plus 64 KB; flows spread round-robin.
	perFlow := hdrLen + 4*units.KB + 128*units.KB + 64*units.KB
	if s.BulkWrite > 0 {
		perFlow += s.BulkWrite
	} else {
		perFlow += bulkWrite
	}
	for _, hs := range [][]*core.Host{servers, clients} {
		for j, h := range hs {
			n := s.Flows / len(hs)
			if j < s.Flows%len(hs) {
				n++
			}
			size := units.Size(n)*perFlow + units.MB
			page := h.K.Mach.PageSize
			h.NewUserTask("load", (size+page-1)/page*page)
		}
	}
	tb.Eng.At(0, func() {})
	tb.Eng.Run()
	tb.Eng.KillAll()
	return fd.at - c0
}
