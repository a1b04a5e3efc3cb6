package sim

import "slices"

// Resource is a counting semaphore with priority queuing, used to model
// contended hardware: a CPU, a DMA engine, a bus. Lower prio values are
// served first; within a priority, FIFO order (by request) holds, which
// keeps the simulation deterministic.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	queue    []resWaiter // ordered by (prio, arrival)
}

type resWaiter struct {
	p    *Proc
	prio int
}

// NewResource returns a resource with the given capacity (≥1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks p until a unit of the resource is available. prio orders
// contending waiters; lower values win.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	// Queue behind every waiter of equal or better priority.
	i := len(r.queue)
	for i > 0 && r.queue[i-1].prio > prio {
		i--
	}
	r.queue = slices.Insert(r.queue, i, resWaiter{p, prio})
	p.park()
	// The releaser incremented inUse on our behalf before waking us.
}

// TryAcquire acquires a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and grants it to the best waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of un-acquired resource")
	}
	r.inUse--
	if len(r.queue) > 0 && r.inUse < r.capacity {
		r.inUse++
		popFront(&r.queue).p.wake()
	}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }
