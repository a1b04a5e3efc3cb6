package soak

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cab"
	"repro/internal/cabdrv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// Keepalive tuning for recovery cases: aggressive enough that a dead peer
// is declared within ~1.5s of virtual time, comfortably inside the 5s
// progress watchdog.
const (
	kaIdle  = 500 * units.Millisecond
	kaIntvl = 250 * units.Millisecond
	kaCount = 3
)

// RecoverCase is one fault-domain recovery scenario: a transfer under a
// stateful fault plan (partition window, adaptor reset, peer death), with
// the set of clean outcomes each flow is allowed to reach.
type RecoverCase struct {
	Name string
	// Plan is the fault plan (must parse; see fault.ParsePlan).
	Plan string
	Seed int64
	Mode socket.Mode
	// Flows is the concurrent connection count (0/1: one flow). Total is
	// per flow; zero picks 1 MB (256 KB when Flows > 1) with 64 KB I/O.
	Flows         int
	Total, RWSize units.Size
	// Arbiter installs the per-flow netmem arbiter on both hosts.
	Arbiter bool
	// KeepAlive enables keepalive probing on every connection (both ends);
	// UserTimeout, when non-zero, bounds sender-side stalls. Cases whose
	// fault can silently kill one end (cabreset, peer death) need these to
	// terminate with a clean error instead of wedging.
	KeepAlive   bool
	UserTimeout units.Time
	// AllowSnd / AllowRcv are the errors a flow's writer / reader may end
	// with. A flow must either complete byte-exact or end in an allowed
	// error on the side that failed; anything else fails the case.
	AllowSnd, AllowRcv []error
	// WantResets / WantPartition are vacuity guards: the scheduled fault
	// must actually have fired.
	WantResets    bool
	WantPartition bool
}

// RecoverFlow is one flow's fate.
type RecoverFlow struct {
	Delivered      units.Size
	SndErr, RcvErr error
	// Complete: the full total arrived byte-exact and both ends finished
	// cleanly.
	Complete bool
}

// RecoverOutcome is a finished recovery case.
type RecoverOutcome struct {
	Case     RecoverCase
	Flows    []RecoverFlow
	Failures []string
	Report   string
	// FlightRec is the flight-recorder dump, taken only when the watchdog
	// declared the run wedged.
	FlightRec []byte

	// Injection schedule (virtual time): FaultAt is the earliest stateful
	// window's start, HealAt the latest heal instant (== FaultAt for an
	// instantaneous cabreset).
	FaultAt, HealAt units.Time
	// FirstGoodputAt is when the first application-level byte landed at or
	// after HealAt (0: no goodput after the fault cleared — the flows
	// died). RecoveryTime is its distance from HealAt.
	FirstGoodputAt units.Time
	RecoveryTime   units.Time
	// EndTime is the virtual time the workload finished.
	EndTime units.Time

	Delivered      units.Size
	Resets         int
	PartitionDrops int64

	A, B *core.Host
}

func (o *RecoverOutcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// errAllowed reports whether err matches one of the allowed sentinels.
func errAllowed(err error, allowed []error) bool {
	for _, a := range allowed {
		if errors.Is(err, a) {
			return true
		}
	}
	return false
}

// RunRecover executes one fault-domain recovery case: Flows transfers run
// under the plan; every flow must end byte-exact or in an allowed error,
// with zero netmem/pin leaks and conserved fault counters afterwards.
func RunRecover(c RecoverCase) RecoverOutcome {
	if c.Flows < 1 {
		c.Flows = 1
	}
	if c.Total == 0 {
		if c.Flows > 1 {
			c.Total = 256 * units.KB
		} else {
			c.Total = 1 * units.MB
		}
	}
	if c.RWSize == 0 {
		c.RWSize = 64 * units.KB
	}
	o := RecoverOutcome{Case: c, Flows: make([]RecoverFlow, c.Flows)}

	tb := core.NewTestbed(c.Seed)
	tb.EnableTelemetry()
	tb.EnableLedger()
	inj := fault.New(tb.Eng, c.Seed)
	if err := inj.AddPlan(c.Plan); err != nil {
		o.failf("plan: %v", err)
		return o
	}
	tb.EnableFaults(inj)
	var arb *cab.ArbConfig
	if c.Arbiter {
		arb = &cab.ArbConfig{}
	}
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: c.Mode, CABNode: 1, Arbiter: arb})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: c.Mode, CABNode: 2, Arbiter: arb})
	tb.RouteCAB(a, b)
	o.A, o.B = a, b

	for _, w := range inj.Windows() {
		if o.HealAt == 0 || w.Until > o.HealAt {
			o.HealAt = w.Until
		}
		if o.FaultAt == 0 || w.From < o.FaultAt {
			o.FaultAt = w.From
		}
		if w.Until == 0 {
			// An unbounded window never heals; recovery is measured against
			// the liveness bound instead, so leave HealAt at the last
			// bounded heal (or the fault instant).
			if o.HealAt < w.From {
				o.HealAt = w.From
			}
		}
	}

	st := a.NewUserTask("recover-snd", 0)
	rt := b.NewUserTask("recover-rcv", 0)

	var (
		got, sent    units.Size
		flowsLeft    = 2 * c.Flows // reader + writer per flow
		done, stuck  bool
		firstGoodput units.Time
	)
	finish := func() {
		if flowsLeft--; flowsLeft == 0 {
			done = true
			o.EndTime = tb.Eng.Now()
		}
	}

	lis := b.Stk.ListenBacklog(port, c.Flows+8)
	tb.Eng.Go("recover-accept", func(p *sim.Proc) {
		for i := 0; i < c.Flows; i++ {
			s := b.Accept(p, rt, lis)
			if s == nil {
				return
			}
			if c.KeepAlive {
				s.Conn.SetKeepAlive(p, kaIdle, kaIntvl, kaCount)
			}
			tb.Eng.Go(fmt.Sprintf("recover-rcv%d", i), func(p *sim.Proc) {
				runRecoverReader(p, tb, b, rt, s, c, &o, &got, &firstGoodput, finish)
			})
		}
	})

	for f := 0; f < c.Flows; f++ {
		f := f
		tb.Eng.Go(fmt.Sprintf("recover-snd%d", f), func(p *sim.Proc) {
			defer finish()
			s, err := a.Dial(p, st, addrB, port)
			if err != nil {
				o.Flows[f].SndErr = err
				return
			}
			if c.KeepAlive {
				s.Conn.SetKeepAlive(p, kaIdle, kaIntvl, kaCount)
			}
			if c.UserTimeout > 0 {
				s.Conn.SetUserTimeout(c.UserTimeout)
			}
			buf := st.Space.Alloc(flowHdrLen+c.RWSize, 8)
			binary.BigEndian.PutUint64(buf.Bytes()[:flowHdrLen], uint64(f))
			if err := s.WriteAll(p, buf.Slice(0, flowHdrLen)); err != nil {
				o.Flows[f].SndErr = err
				s.Conn.Abort(a.K.TaskCtx(p, st))
				return
			}
			var off units.Size
			for off < c.Total {
				n := c.RWSize
				if n > c.Total-off {
					n = c.Total - off
				}
				w := buf.Slice(flowHdrLen, n)
				for i := range w.Bytes() {
					w.Bytes()[i] = patternF(f, off+units.Size(i))
				}
				if err := s.WriteAll(p, w); err != nil {
					o.Flows[f].SndErr = err
					// Tear the connection down hard so the peer's reader
					// sees a RST instead of waiting out its own liveness
					// bound.
					s.Conn.Abort(a.K.TaskCtx(p, st))
					return
				}
				off += n
				sent += n
			}
			s.Close(p)
		})
	}

	// Progress watchdog (see Run): a full quiet window while flows are
	// still outstanding is a wedge — recovery must end in bytes or in a
	// clean error, never in silence.
	tb.Eng.Go("recover-watchdog", func(p *sim.Proc) {
		last := units.Size(0)
		for {
			p.Sleep(watchWindow)
			if done {
				return
			}
			if cur := got + sent; cur != last {
				last = cur
				continue
			}
			stuck = true
			tb.Eng.Stop()
			return
		}
	})

	tb.Eng.Run()
	parked := tb.Eng.LiveProcNames()
	tb.Eng.KillAll()
	o.Delivered = got
	o.Report = inj.Report()
	o.FirstGoodputAt = firstGoodput
	if firstGoodput > o.HealAt {
		o.RecoveryTime = firstGoodput - o.HealAt
	}
	o.Resets = a.CAB.Stats.Resets + b.CAB.Stats.Resets
	o.PartitionDrops = inj.Fired[fault.Partition]

	if stuck {
		o.FlightRec = tb.FlightDump()
		o.failf("progress: no forward progress in %v of virtual time (parked: %v)",
			watchWindow, parked)
		return o
	}

	// Invariant: every flow either completed byte-exact or ended in an
	// allowed, documented error.
	for f := range o.Flows {
		fl := &o.Flows[f]
		if fl.SndErr == nil && fl.RcvErr == nil {
			if fl.Delivered != c.Total {
				o.failf("flow %d: clean end but delivered %v of %v", f, fl.Delivered, c.Total)
				continue
			}
			fl.Complete = true
			continue
		}
		if fl.SndErr != nil && !errAllowed(fl.SndErr, c.AllowSnd) {
			o.failf("flow %d: sender error %q not in the allowed set", f, fl.SndErr)
		}
		if fl.RcvErr != nil && !errAllowed(fl.RcvErr, c.AllowRcv) {
			o.failf("flow %d: reader error %q not in the allowed set", f, fl.RcvErr)
		}
	}

	// Invariant: zero resource leaks — no netmem page may stay allocated
	// and no user page pinned once the run drains, even though the reset
	// wiped descriptors mid-flight.
	o.Failures = append(o.Failures, tb.Leaks()...)

	// Invariant: conservation. Partitioned frames are wire drops accounted
	// to the partition window.
	net := tb.Net
	if net.Sent+net.Duped != net.Delivered+net.Dropped {
		o.failf("conservation: frames sent %d + duped %d != delivered %d + dropped %d",
			net.Sent, net.Duped, net.Delivered, net.Dropped)
	}
	if int64(net.Dropped) != inj.Fired[fault.Drop]+inj.Fired[fault.Partition] {
		o.failf("conservation: wire dropped %d frames, drop faults %d + partition %d",
			net.Dropped, inj.Fired[fault.Drop], inj.Fired[fault.Partition])
	}
	if net.DroppedInj+net.DroppedUnattached+net.DroppedFull != net.Dropped {
		o.failf("conservation: drop split inj %d + unattached %d != dropped %d",
			net.DroppedInj, net.DroppedUnattached, net.Dropped)
	}
	if c.WantResets {
		if inj.Fired[fault.CABReset] == 0 {
			o.failf("vacuous: no cabreset fired")
		}
		if o.Resets == 0 {
			o.failf("vacuous: cabreset fired but no adaptor recorded a reset")
		}
	}
	if c.WantPartition && o.PartitionDrops == 0 {
		o.failf("vacuous: partition window scheduled but no frame was partitioned")
	}
	return o
}

// runRecoverReader drains one accepted flow, verifying the per-flow byte
// pattern and recording the first post-heal goodput instant.
func runRecoverReader(proc *sim.Proc, tb *core.Testbed, b *core.Host, rt *kern.Task,
	s *socket.Socket, c RecoverCase, o *RecoverOutcome, got *units.Size,
	firstGoodput *units.Time, finish func()) {
	defer finish()
	buf := rt.Space.Alloc(c.RWSize, 8)
	var hdr [flowHdrLen]byte
	hb := rt.Space.Alloc(flowHdrLen, 8)
	for hoff := units.Size(0); hoff < flowHdrLen; {
		n, err := s.Read(proc, hb.Slice(hoff, flowHdrLen-hoff))
		copy(hdr[hoff:], hb.Slice(hoff, n).Bytes())
		hoff += n
		if err != nil && hoff < flowHdrLen {
			// The connection died before the 8-byte flow header arrived
			// (an early fault can beat the first data segment). With one
			// flow the attribution is unambiguous — record the error
			// against flow 0 and let the allow-list judge it; with many
			// flows the identity is lost, which is itself a failure.
			if c.Flows == 1 {
				o.Flows[0].RcvErr = err
			} else {
				o.failf("flow header read: %v", err)
			}
			s.Conn.Abort(b.K.TaskCtx(proc, rt))
			return
		}
	}
	flow := int(binary.BigEndian.Uint64(hdr[:]))
	fl := &o.Flows[flow]
	off := units.Size(0)
	for {
		n, err := s.Read(proc, buf)
		for i := units.Size(0); i < n; i++ {
			if w := patternF(flow, off+i); buf.Bytes()[i] != w {
				o.failf("bytes: flow %d offset %d = %#x, want %#x", flow, off+i, buf.Bytes()[i], w)
				tb.Eng.Stop()
				return
			}
		}
		off += n
		*got += n
		fl.Delivered = off
		if n > 0 && *firstGoodput == 0 && tb.Eng.Now() >= o.HealAt {
			*firstGoodput = tb.Eng.Now()
		}
		if err != nil {
			if !errors.Is(err, socket.ErrEOF) {
				fl.RcvErr = err
				// Release the connection so a still-writing sender gets a
				// RST promptly rather than filling a dead window.
				s.Conn.Abort(b.K.TaskCtx(proc, rt))
			}
			return
		}
	}
}

// RecoverMatrix is the fault-domain recovery suite: link partitions across
// connection phases and directions, adaptor resets on each side and both,
// peer death, and combinations with per-packet plans. Cases without
// AllowSnd/AllowRcv must complete every flow byte-exact.
func RecoverMatrix() []RecoverCase {
	sc := socket.ModeSingleCopy
	um := socket.ModeUnmodified
	resetSnd := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrConnTimeout, tcpip.ErrTimeout, cabdrv.ErrReset}
	resetRcv := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrTimeout, cabdrv.ErrReset}
	deathSnd := []error{tcpip.ErrTimeout, tcpip.ErrConnTimeout}
	deathRcv := []error{tcpip.ErrTimeout, tcpip.ErrConnReset}
	return []RecoverCase{
		// Link partitions: every flow must heal and complete byte-exact.
		{Name: "partition-slowstart", Plan: "partition:at=500us,dur=5ms", Seed: 41, Mode: sc, WantPartition: true},
		{Name: "partition-steady", Plan: "partition:at=10ms,dur=10ms", Seed: 42, Mode: sc, WantPartition: true},
		{Name: "partition-long", Plan: "partition:at=5ms,dur=300ms", Seed: 43, Mode: sc, WantPartition: true},
		{Name: "partition-data-dir", Plan: "partition:at=5ms,dur=20ms,src=1,dst=2", Seed: 44, Mode: sc, WantPartition: true},
		{Name: "partition-ack-dir", Plan: "partition:at=5ms,dur=20ms,src=2,dst=1", Seed: 45, Mode: sc, WantPartition: true},
		{Name: "partition-drop-combo", Plan: "partition:at=6ms,dur=15ms;drop:every=13,min=200", Seed: 46, Mode: sc, WantPartition: true},
		{Name: "partition-corrupt-combo", Plan: "partition:at=6ms,dur=15ms;corrupt:every=11,min=200", Seed: 47, Mode: sc, WantPartition: true},
		{Name: "partition-unmod", Plan: "partition:at=5ms,dur=20ms", Seed: 48, Mode: um, WantPartition: true},

		// Adaptor resets: flows with outboard state die with a clean typed
		// error; flows without it must recover via retransmission.
		{Name: "cabreset-sender", Plan: "cabreset:at=8ms,node=1", Seed: 51, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-receiver", Plan: "cabreset:at=8ms,node=2", Seed: 52, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-both", Plan: "cabreset:at=8ms", Seed: 53, Mode: sc, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		{Name: "cabreset-multiflow", Plan: "cabreset:at=6ms,node=1", Seed: 54, Mode: sc, KeepAlive: true,
			Flows: 4, Arbiter: true, AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},
		// The paper's fault-domain contrast: the unmodified stack keeps all
		// transport state in host memory, so a firmware reset loses nothing
		// the kernel cannot retransmit — every flow completes byte-exact.
		{Name: "cabreset-unmod", Plan: "cabreset:at=8ms", Seed: 55, Mode: um, WantResets: true},
		{Name: "cabreset-drop-combo", Plan: "cabreset:at=8ms,node=1;drop:every=17,min=200", Seed: 56, Mode: sc,
			KeepAlive: true, AllowSnd: resetSnd, AllowRcv: resetRcv, WantResets: true},

		// Peer death: an unbounded partition. Liveness (keepalive on the
		// idle reader, user-timeout on the stalled writer) must surface a
		// clean typed error within its bound on both ends.
		{Name: "peerdeath-steady", Plan: "partition:at=10ms", Seed: 57, Mode: sc, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv, WantPartition: true},
		{Name: "peerdeath-slowstart", Plan: "partition:at=1ms", Seed: 58, Mode: sc, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv, WantPartition: true},
	}
}
