package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// recorder returns a queue whose handler logs every event's Arg.
func recorder() (*Queue, *[]int) {
	q := New()
	var got []int
	q.SetHandler(func(ev Event) { got = append(got, int(ev.Arg)) })
	return q, &got
}

func TestOrderingByTime(t *testing.T) {
	q, got := recorder()
	q.Push(Event{At: 30, Arg: 3})
	q.Push(Event{At: 10, Arg: 1})
	q.Push(Event{At: 20, Arg: 2})
	q.Drain(0)
	if g := *got; len(g) != 3 || g[0] != 1 || g[1] != 2 || g[2] != 3 {
		t.Errorf("order = %v", g)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	q, got := recorder()
	for i := 0; i < 10; i++ {
		q.Push(Event{At: 5, Arg: int64(i)})
	}
	q.Drain(0)
	if len(*got) != 10 || !sort.IntsAreSorted(*got) {
		t.Errorf("equal-time events out of scheduling order: %v", *got)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	q := New()
	var fired Time = -1
	q.SetHandler(func(ev Event) {
		switch ev.Kind {
		case 1:
			q.PushAfter(5, Event{Kind: 2})
		case 2:
			fired = q.Now()
		}
	})
	q.Push(Event{At: 100, Kind: 1})
	q.Drain(0)
	if fired != 105 {
		t.Errorf("PushAfter fired at %d, want 105", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	q := New()
	var fired Time = -1
	q.SetHandler(func(ev Event) {
		switch ev.Kind {
		case 1:
			q.Push(Event{At: 10, Kind: 2}) // in the past
		case 2:
			fired = q.Now()
		}
	})
	q.Push(Event{At: 50, Kind: 1})
	q.Drain(0)
	if fired != 50 {
		t.Errorf("past event fired at %d, want 50", fired)
	}
}

func TestRunUntilPredicate(t *testing.T) {
	q, got := recorder()
	for i := 0; i < 100; i++ {
		q.Push(Event{At: Time(i)})
	}
	n := q.RunUntil(func() bool { return len(*got) >= 10 }, 0)
	if len(*got) != 10 || n != 10 {
		t.Errorf("count=%d n=%d, want 10/10", len(*got), n)
	}
	if q.Len() != 90 {
		t.Errorf("Len = %d, want 90", q.Len())
	}
}

func TestRunUntilMaxEvents(t *testing.T) {
	q, got := recorder()
	for i := 0; i < 100; i++ {
		q.Push(Event{At: Time(i)})
	}
	if n := q.Drain(7); n != 7 || len(*got) != 7 {
		t.Errorf("n=%d count=%d, want 7/7", n, len(*got))
	}
}

func TestStepEmpty(t *testing.T) {
	q := New()
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := New()
	var fired []Time
	q.SetHandler(func(ev Event) { fired = append(fired, ev.At) })
	for i := 0; i < 1000; i++ {
		q.Push(Event{At: Time(rng.Intn(500))})
	}
	q.Drain(0)
	if len(fired) != 1000 {
		t.Fatalf("fired %d events", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %d < %d", i, fired[i], fired[i-1])
		}
	}
}

// TestMixedPathFIFOAtEqualTimes pins the tie-break contract across both
// scheduling entry points: events placed by absolute time (Push) and by
// delay (PushAfter) at equal timestamps fire in exactly the order they were
// scheduled, whichever entry point each one used — including events a
// handler schedules at the current time, which queue behind the ones
// already pending there.
func TestMixedPathFIFOAtEqualTimes(t *testing.T) {
	q := New()
	var got []int
	q.SetHandler(func(ev Event) {
		got = append(got, int(ev.Arg))
		if ev.Kind == 1 {
			q.PushAfter(0, Event{Arg: ev.Arg + 100})
		}
	})
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			q.Push(Event{At: 5, Kind: 1, Arg: int64(i)})
		} else {
			q.PushAfter(5, Event{Arg: int64(i)})
		}
	}
	q.Drain(0)
	if len(got) != 18 || !sort.IntsAreSorted(got) {
		t.Errorf("mixed-path equal-time events out of scheduling order: %v", got)
	}
}

// TestTypedEventOrdering covers the typed path alone: time-major order,
// past-scheduling clamped to now, PushAfter relative to the current time.
func TestTypedEventOrdering(t *testing.T) {
	q := New()
	var got []int
	var at []Time
	q.SetHandler(func(ev Event) {
		got = append(got, int(ev.Arg))
		at = append(at, q.Now())
		if ev.Arg == 1 {
			q.PushAfter(7, Event{Kind: 1, Arg: 9})
			q.Push(Event{At: 2, Kind: 1, Arg: 8}) // in the past: clamps to now
		}
	})
	q.Push(Event{At: 30, Kind: 1, Arg: 3})
	q.Push(Event{At: 10, Kind: 1, Arg: 1})
	q.Push(Event{At: 20, Kind: 1, Arg: 2})
	q.Drain(0)
	want := []int{1, 8, 9, 2, 3}
	wantAt := []Time{10, 10, 17, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("fired %v at %v; want %v at %v", got, at, want, wantAt)
		}
	}
}

// TestHandlerSurvivesReset: Reset clears events and rewinds the clock but
// keeps the installed handler, so a Runner wires it exactly once.
func TestHandlerSurvivesReset(t *testing.T) {
	q := New()
	fired := 0
	q.SetHandler(func(Event) { fired++ })
	q.Push(Event{At: 1, Kind: 1})
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 {
		t.Fatalf("Reset left Len=%d Now=%d", q.Len(), q.Now())
	}
	q.Push(Event{At: 1, Kind: 1})
	q.Drain(0)
	if fired != 1 {
		t.Errorf("fired %d events after reset, want 1", fired)
	}
}

// TestTypedPathAllocFree: pushing and dispatching typed events through a
// warm queue allocates nothing — the engine's hot loop depends on this.
func TestTypedPathAllocFree(t *testing.T) {
	q := New()
	q.SetHandler(func(Event) {})
	for i := 0; i < 64; i++ {
		q.Push(Event{At: Time(i), Kind: 1})
	}
	q.Drain(0)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			q.Push(Event{At: Time(i), Kind: 1})
		}
		q.Drain(0)
	})
	if allocs != 0 {
		t.Errorf("typed path allocated %.1f per run, want 0", allocs)
	}
}

func TestCascadingEvents(t *testing.T) {
	q := New()
	depth := 0
	q.SetHandler(func(Event) {
		if depth < 50 {
			depth++
			q.PushAfter(1, Event{})
		}
	})
	q.Push(Event{At: 0})
	q.Drain(0)
	if depth != 50 || q.Now() != 50 {
		t.Errorf("depth=%d now=%d", depth, q.Now())
	}
}

// TestGrowthKeepsOrder: a push far beyond the horizon grows the wheel
// mid-run without disturbing the pending events' order.
func TestGrowthKeepsOrder(t *testing.T) {
	q, got := recorder()
	for i := 0; i < 8; i++ {
		q.Push(Event{At: Time(i % 3), Arg: int64(i)})
	}
	q.Push(Event{At: 10_000, Arg: 99})
	q.Push(Event{At: 2, Arg: 8})
	q.Drain(0)
	want := []int{0, 3, 6, 1, 4, 7, 2, 5, 8, 99}
	for i := range want {
		if len(*got) != len(want) || (*got)[i] != want[i] {
			t.Fatalf("fired %v, want %v", *got, want)
		}
	}
	if q.Now() != 10_000 {
		t.Errorf("Now = %d, want 10000", q.Now())
	}
}

// refQueue is the binary-heap scheduler the timing wheel replaced, kept as
// the reference oracle: it orders events by (time, scheduling sequence)
// explicitly, where the wheel gets the same order from its FIFO buckets.
type refQueue struct {
	h       []refEntry
	now     Time
	seq     int64
	handler func(Event)
}

type refEntry struct {
	ev  Event
	seq int64
}

func (a refEntry) before(b refEntry) bool {
	if a.ev.At != b.ev.At {
		return a.ev.At < b.ev.At
	}
	return a.seq < b.seq
}

func (q *refQueue) Now() Time { return q.now }
func (q *refQueue) Len() int  { return len(q.h) }

func (q *refQueue) Reset() {
	q.h = q.h[:0]
	q.now = 0
	q.seq = 0
}

func (q *refQueue) Push(ev Event) {
	if ev.At < q.now {
		ev.At = q.now
	}
	q.seq++
	q.h = append(q.h, refEntry{ev: ev, seq: q.seq})
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refQueue) PushAfter(delay Time, ev Event) {
	ev.At = q.now + delay
	q.Push(ev)
}

func (q *refQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q.h[r].before(q.h[l]) {
			min = r
		}
		if !q.h[min].before(q.h[i]) {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	q.now = e.ev.At
	q.handler(e.ev)
	return true
}

// scheduler is the surface the differential driver exercises on both the
// wheel and the reference heap.
type scheduler interface {
	Push(Event)
	PushAfter(Time, Event)
	Step() bool
	Reset()
	Now() Time
	Len() int
}

// mix is splitmix64's finalizer: a deterministic pseudo-random function of
// an event's payload, so both queues' handlers react identically to the
// same event.
func mix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// reactor returns a handler that logs every event (with the clock it ran
// at) and, while the event's Op depth lasts, schedules up to two children
// derived from its payload: at the current time, in the past, a short
// delay ahead, or far beyond any small wheel's horizon.
func reactor(q scheduler, log *[]Event) func(Event) {
	return func(ev Event) {
		ev.At = q.Now()
		*log = append(*log, ev)
		if ev.Op <= 0 {
			return
		}
		for j := int64(0); j < ev.Arg%3; j++ {
			c := mix(ev.Arg + j)
			child := Event{Kind: uint8(c), Core: int32(c >> 8), Op: ev.Op - 1, Arg: c}
			d := Time(c >> 16)
			switch c % 4 {
			case 0:
				q.PushAfter(0, child)
			case 1:
				child.At = q.Now() - d%8
				q.Push(child)
			case 2:
				q.PushAfter(d%40, child)
			case 3:
				q.PushAfter(d%5000, child)
			}
		}
	}
}

// diffQueues runs one operation script on the timing wheel and on the
// reference heap and fails at the first divergence in pop sequence, clock
// or pending count. The script is read as (op, arg) byte pairs: absolute
// pushes (past ones included), short and horizon-breaking delayed pushes,
// bounded stepping, and Reset followed by reuse.
func diffQueues(t testing.TB, script []byte) {
	t.Helper()
	w, ref := New(), &refQueue{}
	var wl, rl []Event
	w.SetHandler(reactor(w, &wl))
	ref.handler = reactor(ref, &rl)
	both := func(f func(q scheduler)) { f(w); f(ref) }
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], int64(script[i+1])
		ev := Event{Kind: op, Core: int32(i), Op: 3, Arg: mix(arg + int64(i))}
		switch op % 5 {
		case 0:
			both(func(q scheduler) { e := ev; e.At = q.Now() + Time(arg) - 16; q.Push(e) })
		case 1:
			both(func(q scheduler) { q.PushAfter(Time(arg*37), ev) })
		case 2:
			both(func(q scheduler) { q.PushAfter(Time(arg%4), ev) })
		case 3:
			both(func(q scheduler) {
				for k := int64(0); k < arg%8; k++ {
					q.Step()
				}
			})
		case 4:
			if arg%8 == 0 {
				both(func(q scheduler) { q.Reset() })
			} else {
				both(func(q scheduler) {
					for k := int64(0); k < arg && q.Step(); k++ {
					}
				})
			}
		}
		if w.Len() != ref.Len() || w.Now() != ref.Now() || len(wl) != len(rl) {
			t.Fatalf("after op %d: wheel Len=%d Now=%d popped=%d; heap Len=%d Now=%d popped=%d",
				i/2, w.Len(), w.Now(), len(wl), ref.Len(), ref.Now(), len(rl))
		}
	}
	both(func(q scheduler) {
		for q.Step() {
		}
	})
	if len(wl) != len(rl) {
		t.Fatalf("wheel popped %d events, heap %d", len(wl), len(rl))
	}
	for i := range wl {
		if wl[i] != rl[i] {
			t.Fatalf("pop %d: wheel %+v, heap %+v", i, wl[i], rl[i])
		}
	}
}

// TestWheelMatchesHeap drives random scripts through the timing wheel and
// the reference heap: every pop sequence must be identical.
func TestWheelMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 300; s++ {
		script := make([]byte, 2*(1+rng.Intn(200)))
		rng.Read(script)
		diffQueues(t, script)
	}
}

// FuzzQueueOrder is the fuzzed form of TestWheelMatchesHeap.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 20, 1, 200, 3, 7, 2, 0, 4, 8, 0, 0, 1, 255, 4, 50})
	f.Add([]byte{2, 0, 2, 0, 2, 1, 3, 7, 0, 3, 3, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffQueues(t, script)
	})
}
