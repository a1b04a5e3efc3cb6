package sim

// Signal is a broadcast/signal condition variable for processes.
// The zero value is not usable; create one with NewSignal.
type Signal struct {
	eng     *Engine
	waiters []waiter
}

// waiter is one queued wait. It goes stale once its proc's wseq moves on:
// the wait was satisfied, or the proc has been woken since.
type waiter struct {
	p   *Proc
	seq uint64
}

func (w waiter) live() bool { return w.seq == w.p.wseq }

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks p until the signal is signaled or broadcast.
func (s *Signal) Wait(p *Proc) {
	p.wseq++
	s.waiters = append(s.waiters, waiter{p, p.wseq})
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (s *Signal) Signal() {
	for len(s.waiters) > 0 {
		if w := popFront(&s.waiters); w.live() {
			w.p.wake()
			return
		}
	}
}

// Broadcast wakes every waiting process.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		if w.live() {
			w.p.wake()
		}
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of processes currently waiting.
func (s *Signal) Waiting() int {
	n := 0
	for _, w := range s.waiters {
		if w.live() {
			n++
		}
	}
	return n
}
