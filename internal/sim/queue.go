package sim

// Queue is an unbounded FIFO for passing items to consuming processes.
// Put may be called from any simulation context; Get blocks the calling
// process until an item is available.
type Queue[T any] struct {
	items  []T
	signal *Signal
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{signal: NewSignal(e)}
}

// Put appends an item and wakes one waiting consumer.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.signal.Signal()
}

// Get removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.signal.Wait(p)
	}
	return popFront(&q.items)
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return popFront(&q.items), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
