// Package core assembles complete simulated hosts — kernel, VM, protocol
// stack, CAB adaptor and driver, optional legacy Ethernet and loopback
// devices — into a testbed, and is the primary entry point for running the
// paper's configurations: the unmodified stack versus the single-copy
// stack over the Gigabit Nectar CAB (Figure 2).
package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/cab"
	"repro/internal/cabdrv"
	"repro/internal/cost"
	"repro/internal/ethdev"
	"repro/internal/fault"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/loop"
	"repro/internal/mem"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/obs/netobs"
	"repro/internal/obs/prof"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

// HostConfig describes one host to add to a testbed.
type HostConfig struct {
	Name string
	Addr wire.Addr
	// Mach is the cost model; nil defaults to the Alpha 3000/400.
	Mach *cost.Machine
	// Mode selects the stack variant.
	Mode socket.Mode
	// CABNode is the host's HIPPI switch port.
	CABNode hippi.NodeID
	// CABConfig overrides the adaptor configuration (zero value: default).
	CABConfig *cab.Config
	// Arbiter, if set, installs a per-flow netmem arbiter on the host's
	// CAB with this configuration (zero value: arbiter defaults). Nil
	// keeps the seed first-come global allocation policy.
	Arbiter *cab.ArbConfig
	// NoDriver attaches the CAB hardware without the protocol driver
	// (raw-HIPPI measurement harnesses drive the adaptor directly).
	NoDriver bool
	// EthNode, if non-zero, also attaches a legacy Ethernet-class device
	// at that station id on the testbed's legacy medium.
	EthNode hippi.NodeID
	// Loopback attaches a loopback interface.
	Loopback bool
	// LazyUnpin enables the pinned-buffer reuse cache (Section 4.4.1
	// extension).
	LazyUnpin bool
	// CC selects the host's TCP congestion-control policy: "" or "reno"
	// for the classic 4.3BSD-Reno behavior, "dctcp" for the ECN-reacting
	// variant (needs a fabric with CE marking enabled to differ).
	CC string
	// MTU overrides the CAB interface's network-layer MTU (0: the default
	// 32 KByte paper MTU). Fabric scenarios use a smaller MTU so DCTCP's
	// two-segment cwnd floor sits below a fair per-flow share.
	MTU units.Size
}

// Host is one assembled host.
type Host struct {
	Name string
	Cfg  HostConfig
	K    *kern.Kernel
	VM   *kern.VM
	Stk  *tcpip.Stack
	CAB  *cab.CAB
	Drv  *cabdrv.Driver
	Eth  *ethdev.Driver
	Lo   *loop.Loopback

	tasks []*kern.Task // made by NewUserTask, for Testbed.Leaks
}

// Testbed is a set of hosts joined by a HIPPI switch (and optionally a
// slower legacy medium).
type Testbed struct {
	Eng    *sim.Engine
	Net    *hippi.Network
	EthNet *hippi.Network
	Hosts  []*Host
	// Tel is the testbed-wide telemetry hub; nil unless EnableTelemetry
	// was called before hosts were added.
	Tel *obs.Telemetry
	// Prof is the virtual-time CPU profiler; nil unless EnableProfiling
	// was called before hosts were added.
	Prof *prof.Profiler
	// Series is the utilization time-series sampler; nil unless
	// EnableSeries was called before hosts were added.
	Series *obs.SeriesSet
	// FaultInj is the fault injector; nil unless EnableFaults was called
	// before hosts were added.
	FaultInj *fault.Injector
	// Led is the data-touch ledger; nil unless EnableLedger was called
	// before hosts were added.
	Led *ledger.Ledger
	// EngObs is the simulator meta-observer (wall-clock engine counters);
	// nil unless EnableEngineObs was called before hosts were added.
	EngObs *engine.Observer
	// NetObs is the transport-dynamics recorder; nil unless EnableNetObs
	// was called before hosts were added.
	NetObs *netobs.Recorder

	seriesStop bool
}

// EthRate is the legacy medium's line rate (FDDI-class, so the legacy
// device rather than the wire dominates in interop tests).
const EthRate = 100 * units.Mbps

// NewTestbed creates an empty testbed with a HIPPI switch.
func NewTestbed(seed int64) *Testbed {
	eng := sim.NewEngine(seed)
	return &Testbed{
		Eng:    eng,
		Net:    hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond),
		EthNet: hippi.NewNetwork(eng, EthRate, 50*units.Microsecond),
	}
}

// EnableTelemetry turns on metrics and data-path tracing for every host
// added afterwards. It must run before AddHost so subsystem constructors
// can register their instruments.
func (tb *Testbed) EnableTelemetry() *obs.Telemetry {
	if len(tb.Hosts) > 0 {
		panic("core: EnableTelemetry must be called before AddHost")
	}
	if tb.Tel == nil {
		tb.Tel = obs.New(tb.Eng.Now)
		r := tb.Tel.Registry("net")
		tb.Net.SetObs(r, "hippi")
		tb.EthNet.SetObs(r, "eth")
	}
	return tb.Tel
}

// EnableCritPath turns on the causal critical-path recorder: data-path
// spans of every host added afterwards record happens-before events
// (writer enqueue, tcp_output, SDMA, wire, interrupt, read wakeup) with
// stall-cause edges, for the internal/obs/critpath analyzer. Implies
// EnableTelemetry; must run before AddHost.
func (tb *Testbed) EnableCritPath() *obs.CritRec {
	if len(tb.Hosts) > 0 {
		panic("core: EnableCritPath must be called before AddHost")
	}
	tb.EnableTelemetry()
	tb.Tel.EnableCritPath()
	return tb.Tel.Crit()
}

// EnableProfiling turns on the virtual-time CPU profiler for every host
// added afterwards: all kernel CPU charges are attributed to a
// (host, layer-stack, category, flow) node, exactly — no sampling. It
// must run before AddHost so hosts get their profile roots.
func (tb *Testbed) EnableProfiling() *prof.Profiler {
	if len(tb.Hosts) > 0 {
		panic("core: EnableProfiling must be called before AddHost")
	}
	if tb.Prof == nil {
		tb.Prof = prof.New(kern.CategoryNames())
	}
	return tb.Prof
}

// SeriesInterval is the utilization sampler's period, in virtual time.
const SeriesInterval = 100 * units.Microsecond

// EnableSeries turns on the utilization time-series sampler: every
// SeriesInterval of virtual time each host records CPU utilization (total
// and per category, in per-mille), network-memory page occupancy, and TCP
// queue/window high-water marks. Implies EnableTelemetry; must run before
// AddHost. The sampler keeps an engine event pending, so call StopSeries
// when the workload ends or Eng.Run will not return.
func (tb *Testbed) EnableSeries() *obs.SeriesSet {
	if len(tb.Hosts) > 0 {
		panic("core: EnableSeries must be called before AddHost")
	}
	tb.EnableTelemetry()
	if tb.Series == nil {
		tb.Series = obs.NewSeriesSet(SeriesInterval, obs.DefaultSeriesCapacity)
		tb.Series.SetLatencySource(tb.Tel.Trace().Latency())
		tb.Eng.Go("series-sampler", func(p *sim.Proc) {
			for !tb.seriesStop {
				p.Sleep(SeriesInterval)
				tb.Series.Sample(p.Now())
			}
		})
	}
	return tb.Series
}

// EnableNetObs turns on the transport-dynamics observatory for every host
// added afterwards: per-connection TCP congestion-state series sampled on
// state change, per-port wire busy/stall telemetry with per-flow
// bytes-on-wire attribution, and the postmortem analyzer joining the two
// with adaptor-memory stats (see NetObsPostmortem). Purely observational:
// it charges no simulated time and leaves run timing byte-identical. Must
// run before AddHost.
func (tb *Testbed) EnableNetObs() *netobs.Recorder {
	if len(tb.Hosts) > 0 {
		panic("core: EnableNetObs must be called before AddHost")
	}
	if tb.NetObs == nil {
		tb.NetObs = netobs.New(tb.Eng.Now)
		tb.Net.SetNetObs(tb.NetObs.Wire("hippi", 0))
		tb.EthNet.SetNetObs(tb.NetObs.Wire("eth", 0))
	}
	return tb.NetObs
}

// NetObsPostmortem runs the transport-dynamics analyzer over everything the
// recorder saw, joining each flow's series with the wire telemetry and the
// receiving host's adaptor-memory stats. after excludes warmup events from
// the verdict rules. Returns nil when netobs is disabled.
func (tb *Testbed) NetObsPostmortem(after units.Time) *netobs.Postmortem {
	if tb.NetObs == nil {
		return nil
	}
	mem := make([]netobs.HostMem, 0, len(tb.Hosts))
	for _, h := range tb.Hosts {
		st := &h.CAB.Stats
		mem = append(mem, netobs.HostMem{
			Host:        h.Name,
			Node:        int(h.Cfg.CABNode),
			DropNoMem:   int64(st.DropNoMem),
			DropNoBuf:   int64(st.DropNoBuf),
			RxRetries:   int64(st.RxRetries),
			ArbWaits:    int64(st.ArbWaits),
			ArbBorrows:  int64(st.ArbBorrows),
			ArbReclaims: int64(st.ArbReclaims),
		})
	}
	return tb.NetObs.Analyze(mem, netobs.Options{After: after})
}

// StopSeries retires the sampler: it takes one final row at the next tick
// and exits, letting Eng.Run drain. Harmless when series are disabled.
func (tb *Testbed) StopSeries() { tb.seriesStop = true }

// EnableLedger turns on the data-touch ledger: every event where a
// payload byte is read or written — CPU copy, CPU checksum, host-bus
// DMA, media DMA, wire transit — is recorded as an interval record for
// post-run audit (the single-copy oracle). Must run before AddHost so
// each host's kernel and adaptor get their hooks.
func (tb *Testbed) EnableLedger() *ledger.Ledger {
	if len(tb.Hosts) > 0 {
		panic("core: EnableLedger must be called before AddHost")
	}
	if tb.Led == nil {
		tb.Led = ledger.New(tb.Eng.Now)
		wireHook := tb.Led.Hook("wire")
		tb.Net.Led = wireHook
		tb.EthNet.Led = wireHook
	}
	return tb.Led
}

// FlightDump serializes each host's recent ledger events, the tail of the
// telemetry trace, and the per-kind fault-injector counters into one JSON
// document — the flight recorder image dumped when a watchdog or fault
// oracle fires. The fault section tells a reader of a wedged-run dump
// which injections had actually fired by the time the watchdog gave up.
func (tb *Testbed) FlightDump() []byte {
	var led, trace, faults []byte
	if tb.Led != nil {
		led = tb.Led.FlightDump()
	}
	if tb.Tel != nil {
		trace = tb.Tel.ChromeTail(256)
	}
	if tb.FaultInj != nil {
		faults, _ = json.Marshal(tb.FaultInj.FiredMap())
	}
	out := append([]byte(`{"ledger":`), orNull(led)...)
	out = append(out, `,"trace":`...)
	out = append(out, orNull(trace)...)
	out = append(out, `,"faults":`...)
	out = append(out, orNull(faults)...)
	return append(out, '}')
}

func orNull(b []byte) []byte {
	if len(b) == 0 {
		return []byte("null")
	}
	return b
}

// EnableEngineObs turns on the simulator meta-observer: the engine counts
// its own real work (events dispatched per kind, queue and timer
// high-waters, advisory wall-clock/allocation attribution) and every host
// kernel added afterwards counts its charges. Unlike the other obs
// layers, this one measures the simulator in wall-clock time; it still
// never touches virtual time, so enabling it cannot change results. Pass
// nil to create a fresh observer, or an existing one to accumulate one
// observatory across several testbeds (the simbench soak matrix). Must
// run before AddHost so kernels get their hooks.
func (tb *Testbed) EnableEngineObs(o *engine.Observer) *engine.Observer {
	if len(tb.Hosts) > 0 {
		panic("core: EnableEngineObs must be called before AddHost")
	}
	if o == nil {
		o = engine.New()
	}
	tb.EngObs = o
	o.Attach(tb.Eng)
	return o
}

// EnableFaults installs a fault injector on every fabric and every host
// added afterwards: the wire surfaces immediately, the CAB and kernel
// surfaces as each host is assembled. Add the plan's rules to inj before
// calling. Must run before AddHost.
func (tb *Testbed) EnableFaults(inj *fault.Injector) *fault.Injector {
	if len(tb.Hosts) > 0 {
		panic("core: EnableFaults must be called before AddHost")
	}
	tb.FaultInj = inj
	inj.WireNet(tb.Net)
	inj.WireNet(tb.EthNet)
	tb.Net.SetLinkInjector(inj)
	if tb.Tel != nil {
		inj.SetObs(tb.Tel.Registry("net"), tb.Tel.Trace())
	}
	return inj
}

// AddHost assembles a host and joins it to the testbed fabrics.
func (tb *Testbed) AddHost(cfg HostConfig) *Host {
	if cfg.Mach == nil {
		cfg.Mach = cost.Alpha400()
	}
	h := &Host{Name: cfg.Name, Cfg: cfg}
	h.K = kern.New(cfg.Name, tb.Eng, cfg.Mach)
	if tb.Tel != nil {
		h.K.Obs = tb.Tel.Registry(cfg.Name)
		h.K.RegisterObs()
	}
	if tb.Prof != nil {
		h.K.Prof = tb.Prof.Host(cfg.Name)
	}
	if tb.Led != nil {
		h.K.Led = tb.Led.Hook(cfg.Name)
	}
	h.K.EngObs = tb.EngObs
	h.VM = kern.NewVM(h.K)
	h.VM.LazyUnpin = cfg.LazyUnpin
	h.Stk = tcpip.NewStack(h.K, cfg.Addr)
	h.Stk.CC = cfg.CC
	if tb.NetObs != nil {
		h.Stk.SetNetObs(tb.NetObs, int(cfg.CABNode))
	}

	cabCfg := cab.DefaultConfig()
	if cfg.CABConfig != nil {
		cabCfg = *cfg.CABConfig
	}
	h.CAB = cab.New(tb.Eng, cfg.Mach, tb.Net, cfg.CABNode, cabCfg)
	h.CAB.SetObs(h.K.Obs)
	h.CAB.Led = h.K.Led
	h.CAB.Host = cfg.Name
	if cfg.Arbiter != nil {
		cab.NewArbiter(h.CAB, *cfg.Arbiter)
	}
	if tb.FaultInj != nil {
		tb.FaultInj.WireCAB(h.CAB)
		tb.FaultInj.WireKernel(h.K)
	}
	if !cfg.NoDriver {
		h.Drv = cabdrv.New("cab0", h.K, h.CAB, cfg.Mode == socket.ModeSingleCopy)
		h.Drv.Input = h.Stk.Input
		h.Drv.ResetNotify = h.Stk.DeviceReset
		if cfg.MTU > 0 {
			h.Drv.SetMTU(cfg.MTU)
		}
	}
	if cfg.EthNode != 0 {
		h.Eth = ethdev.New("en0", h.K, tb.EthNet, cfg.EthNode, 0)
		h.Eth.Input = h.Stk.Input
	}
	if cfg.Loopback {
		h.Lo = loop.New(h.K)
		h.Lo.Input = h.Stk.Input
		h.Stk.Routes.AddHost(cfg.Addr, h.Lo, 0)
	}
	if tb.Series != nil {
		tb.registerSeries(h)
	}
	tb.Hosts = append(tb.Hosts, h)
	return h
}

// registerSeries wires the host's utilization columns. Gauge columns
// share instruments with the subsystems that set them via the registry's
// name interning.
func (tb *Testbed) registerSeries(h *Host) {
	s := tb.Series.Series(h.Name)
	k := h.K
	s.UtilPerMille("cpu.util_pm", func() int64 { return int64(k.BusyTime()) })
	for i, name := range kern.CategoryNames() {
		c := kern.Category(i)
		s.UtilPerMille("cpu."+name+"_pm", func() int64 { return int64(k.CategoryTime(c)) })
	}
	pages := h.K.Obs.Gauge("cab.netmem_pages")
	s.Level("cab.netmem_pages", pages.Value)
	s.Peak("cab.netmem_pages_peak", pages)
	s.Peak("tcp.snd_q_peak", h.K.Obs.Gauge("tcp.snd_q"))
	s.Peak("tcp.rcv_q_peak", h.K.Obs.Gauge("tcp.rcv_q"))
	s.Peak("tcp.snd_wnd_peak", h.K.Obs.Gauge("tcp.snd_wnd"))
}

// Snapshot returns the host's current metric values (empty when telemetry
// is disabled).
func (h *Host) Snapshot() obs.HostMetrics {
	if h.K.Obs == nil {
		return obs.HostMetrics{Host: h.Name}
	}
	return h.K.Obs.Snapshot()
}

// RouteCAB installs host routes in both directions between a and b over
// the HIPPI fabric.
func (tb *Testbed) RouteCAB(a, b *Host) {
	if a.Drv == nil || b.Drv == nil {
		panic("core: RouteCAB requires CAB drivers on both hosts")
	}
	a.Stk.Routes.AddHost(b.Cfg.Addr, a.Drv, netif.LinkAddr(b.Cfg.CABNode))
	b.Stk.Routes.AddHost(a.Cfg.Addr, b.Drv, netif.LinkAddr(a.Cfg.CABNode))
}

// RouteEth installs host routes between a and b over the legacy medium.
func (tb *Testbed) RouteEth(a, b *Host) {
	if a.Eth == nil || b.Eth == nil {
		panic("core: RouteEth requires Ethernet devices on both hosts")
	}
	a.Stk.Routes.AddHost(b.Cfg.Addr, a.Eth, netif.LinkAddr(b.Cfg.EthNode))
	b.Stk.Routes.AddHost(a.Cfg.Addr, b.Eth, netif.LinkAddr(a.Cfg.EthNode))
}

// NewUserTask creates a user task on the host with its own address space.
func (h *Host) NewUserTask(name string, spaceSize units.Size) *kern.Task {
	if spaceSize <= 0 {
		spaceSize = 8 * units.MB
	}
	space := mem.NewAddrSpace(fmt.Sprintf("%s/%s", h.Name, name),
		spaceSize, h.K.Mach.PageSize)
	t := h.K.NewTask(name, kern.PrioUser, space)
	h.tasks = append(h.tasks, t)
	return t
}

// Leaks reports the resources a drained run still holds: netmem pages
// allocated on any host's CAB, and pinned pages in the address space of
// any task made with Host.NewUserTask. Each entry is one failure message;
// nil means nothing leaked.
func (tb *Testbed) Leaks() []string {
	var out []string
	for _, h := range tb.Hosts {
		if free, tot := h.CAB.FreePages(), h.CAB.TotalPages(); free != tot {
			out = append(out, fmt.Sprintf("leak: host %s holds %d netmem pages after drain", h.Name, tot-free))
		}
	}
	for _, h := range tb.Hosts {
		for _, t := range h.tasks {
			if n := t.Space.PinnedPages(); n != 0 {
				out = append(out, fmt.Sprintf("leak: task %s holds %d pinned pages after drain", t.Name, n))
			}
		}
	}
	return out
}

// SocketConfig returns the socket configuration matching the host's stack
// variant.
func (h *Host) SocketConfig() socket.Config {
	return socket.Config{Mode: h.Cfg.Mode}
}

// Dial opens a stream socket from task on h to raddr:rport.
func (h *Host) Dial(p *sim.Proc, task *kern.Task, raddr wire.Addr, rport uint16) (*socket.Socket, error) {
	return socket.Dial(p, h.K, h.VM, task, h.Stk, raddr, rport, h.SocketConfig())
}

// Accept wraps a listener accept with the host's socket configuration.
func (h *Host) Accept(p *sim.Proc, task *kern.Task, l *tcpip.TCPListener) *socket.Socket {
	return socket.Accept(p, h.K, h.VM, task, l, h.SocketConfig())
}
