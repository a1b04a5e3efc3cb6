//go:build go1.23

// The constraint lifts this file to Go 1.23, where iter.Pull first
// appears; the module itself still declares go 1.22.

package sim

import (
	"fmt"
	"iter"

	"repro/internal/units"
)

// Proc is a simulation process: a coroutine (iter.Pull) whose execution is
// interleaved with the event loop. At any instant at most one process (or
// event) is running; a process gives up control by blocking in Sleep,
// Signal.Wait, Resource.Acquire, or Queue.Get, which yields back to the
// event that resumed it. Switching is a direct coroutine hand-off, not a
// goroutine reschedule.
//
// Proc methods that block must only be called from the process itself.
// Methods that wake other processes (Signal.Broadcast and friends) may be
// called from any simulation context; they take effect via scheduled
// events.
type Proc struct {
	eng     *Engine
	name    string
	next    func() (struct{}, bool) // resume until the next yield
	stop    func()                  // unwind a parked or unstarted proc
	yield   func(struct{}) bool     // false once the proc is killed
	deliver func()                  // wake callback: run p until it parks (event context only)
	wseq    uint64                  // current wait; waiters with another seq are stale
	done    bool
}

// killSentinel unwinds a killed process.
type killSentinel struct{}

// Go spawns a new process named name running fn. The process starts at the
// current virtual time (after already-scheduled events at that time). A
// panic in fn is re-raised to the caller of Run.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			delete(e.live, p)
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r) // iter.Pull re-raises it from next, in Run's caller
				}
			}
		}()
		fn(p)
	})
	// Built once here; every wakeup of p schedules this same callback.
	p.deliver = func() {
		if !p.done {
			p.next()
		}
	}
	e.live[p] = struct{}{}
	e.AtKind(e.now, KindProc, p.deliver)
	return p
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() units.Time { return p.eng.now }

// park yields the calling process back to the event loop until the engine
// resumes it; a killed process unwinds from here.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// wake schedules the engine to resume p at the current time. It consumes
// p's current wait, so no other queued waiter or timeout can wake p twice.
func (p *Proc) wake() {
	p.wseq++
	p.eng.AtKind(p.eng.now, KindProc, p.deliver)
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d units.Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %s", d, p.name))
	}
	p.eng.AfterKind(d, KindProc, p.deliver)
	p.park()
}

// Yield blocks the process and immediately reschedules it, letting other
// work scheduled at the same instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
