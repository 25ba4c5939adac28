// Package eventq provides the discrete-event scheduler underlying the
// simulated validation platform: a time-ordered queue of typed event records
// with a monotonic clock. Events at equal times run in scheduling order
// (FIFO), so simulations are fully deterministic for a given seed.
//
// Events are plain value records (Event) dispatched through a handler set
// with SetHandler — no per-event closure allocation on the hot path.
//
// The queue is a bucketed timing wheel. Every delay the simulator schedules
// is a bounded platform or memory parameter, so all pending events lie in
// [Now, Now+size) for a wheel of size buckets, and each bucket holds events
// of exactly one timestamp. Buckets are FIFO lists, so popping the first
// non-empty bucket at or after Now yields exactly (time, scheduling order).
// A push beyond the horizon doubles the wheel; the wheel never shrinks.
package eventq

// Time is a simulation timestamp in abstract cycles.
type Time int64

// Event is a typed event record. Kind selects the dispatch arm in the
// handler's jump table; Core, Op, and Arg are payload fields whose meaning
// is private to the producer of each kind. At is filled in by the queue.
type Event struct {
	At   Time
	Kind uint8
	Core int32
	Op   int32
	Arg  int64
}

// minBuckets is the wheel size allocated by the first push.
const minBuckets = 64

// Queue is a discrete-event scheduler. The zero value is not ready for use;
// call New.
//
// Pending events live in one pooled node slice, threaded into per-bucket
// FIFO lists by index, with freed nodes recycled through a free list: once
// the pool and the wheel have grown to an iteration's peak, pushing and
// popping allocate nothing.
type Queue struct {
	_       cacheLinePad
	buckets []bucket // len is a power of two; bucket t&mask holds time t
	nodes   []node
	free    int32 // head of the free-node list; -1 when empty
	n       int   // pending events
	now     Time
	handler func(Event)
	_       cacheLinePad
}

// cacheLinePad keeps a queue's fields, written on every push and pop, off
// the cache lines of neighbouring heap objects. Parallel campaign workers
// each drive their own queue; two queues allocated back to back would
// otherwise share a line, and the false sharing nearly doubles the cost of
// every event while both workers run.
type cacheLinePad [64]byte

// bucket is one wheel slot: a FIFO list of node indices, -1 when empty.
type bucket struct{ head, tail int32 }

type node struct {
	ev   Event
	next int32
}

// New returns an empty queue with the clock at zero.
func New() *Queue { return &Queue{free: -1} }

// SetHandler installs the dispatch function invoked for every event. It
// survives Reset, so a Runner installs it once at construction. Stepping a
// non-empty queue with no handler installed panics.
func (q *Queue) SetHandler(h func(Event)) { q.handler = h }

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Reset discards all pending events and rewinds the clock to zero, keeping
// the wheel, the node pool (and the handler) for reuse. A reset queue
// behaves exactly like a freshly New'd one.
func (q *Queue) Reset() {
	if q.n > 0 {
		for i := range q.buckets {
			q.buckets[i] = bucket{-1, -1}
		}
	}
	q.nodes = q.nodes[:0]
	q.free = -1
	q.n = 0
	q.now = 0
}

// Push schedules an event at the absolute time ev.At. Scheduling in the past
// (before Now) runs the event at the current time instead; time never moves
// backwards.
func (q *Queue) Push(ev Event) {
	if ev.At < q.now {
		ev.At = q.now
	}
	if ev.At-q.now >= Time(len(q.buckets)) {
		q.grow(ev.At - q.now)
	}
	i := q.free
	if i >= 0 {
		nd := &q.nodes[i]
		q.free = nd.next
		nd.ev = ev
		nd.next = -1
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{ev: ev, next: -1})
	}
	b := &q.buckets[int(ev.At)&(len(q.buckets)-1)]
	if b.head < 0 {
		b.head = i
	} else {
		q.nodes[b.tail].next = i
	}
	b.tail = i
	q.n++
}

// PushAfter schedules an event delay cycles from now.
func (q *Queue) PushAfter(delay Time, ev Event) {
	ev.At = q.now + delay
	q.Push(ev)
}

// grow doubles the wheel until span fits inside the horizon. Pending events
// lie in [now, now+old size), one timestamp per bucket, so each bucket maps
// to a distinct bucket of the larger wheel and moves across whole, its FIFO
// order intact.
func (q *Queue) grow(span Time) {
	size := max(2*len(q.buckets), minBuckets)
	for Time(size) <= span {
		size *= 2
	}
	buckets := make([]bucket, size)
	for i := range buckets {
		buckets[i] = bucket{-1, -1}
	}
	for _, b := range q.buckets {
		if b.head >= 0 {
			buckets[int(q.nodes[b.head].ev.At)&(size-1)] = b
		}
	}
	q.buckets = buckets
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (q *Queue) Step() bool {
	if q.n == 0 {
		return false
	}
	mask := len(q.buckets) - 1
	t := q.now
	for q.buckets[int(t)&mask].head < 0 {
		t++
	}
	b := &q.buckets[int(t)&mask]
	i := b.head
	nd := &q.nodes[i]
	ev := nd.ev
	b.head = nd.next
	nd.next = q.free
	q.free = i
	q.n--
	q.now = t
	q.handler(ev)
	return true
}

// RunUntil processes events until the queue is empty, done returns true, or
// maxEvents events have run. It returns the number of events processed.
// A maxEvents of 0 means no limit. The done predicate is checked after each
// event.
func (q *Queue) RunUntil(done func() bool, maxEvents int) int {
	n := 0
	for q.n > 0 {
		if done != nil && done() {
			return n
		}
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		q.Step()
		n++
	}
	return n
}

// Drain processes all pending events (bounded by maxEvents when non-zero)
// and returns the number processed.
func (q *Queue) Drain(maxEvents int) int { return q.RunUntil(nil, maxEvents) }
