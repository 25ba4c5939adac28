package sim

import (
	"testing"

	"mtracecheck/internal/eventq"
)

// TestPumpFixpoint checks the contract that lets pump skip clean threads:
// after every event, no running, started thread whose dirty flag is clear
// may have an op that could commit, issue or start. A state change that
// forgets to mark its thread dirty leaves startable work behind and fails
// here. It also checks that every thread's waiting set — the only ops
// pump's start scan looks at — holds exactly the issued, not in flight,
// not performed ops. The check wraps the runner's own handler, so the
// engine carries no test hook.
func TestPumpFixpoint(t *testing.T) {
	want := map[string]bool{"x86": true, "arm": true, "x86_os": true, "x86_os_fit": true, "x86_sc": true, "x86_pso": true}
	for _, g := range goldenPlatforms() {
		if !want[g.name] {
			continue
		}
		r, err := NewRunner(g.plat, g.prog, 3)
		if err != nil {
			t.Fatal(err)
		}
		e := &r.eng
		events := 0
		r.q.SetHandler(func(ev eventq.Event) {
			e.dispatch(ev)
			events++
			for _, th := range e.threads {
				for i := range th.ops {
					o := &th.ops[i]
					want := o.issued && !o.inFlight && !o.performed
					if got := th.waiting[i/64]>>(i%64)&1 == 1; got != want {
						t.Fatalf("%s event %d (kind %d): thread %d op %d waiting bit %v, want %v (issued %v, in flight %v, performed %v)",
							g.name, events, ev.Kind, th.slot, i, got, want, o.issued, o.inFlight, o.performed)
					}
				}
				if !th.running || !th.started || th.dirty {
					continue
				}
				if e.canCommit(th) {
					t.Fatalf("%s event %d (kind %d): clean thread %d can commit op %d",
						g.name, events, ev.Kind, th.slot, th.commit)
				}
				if th.next < len(th.ops) && th.next-th.commit < g.plat.Window {
					t.Fatalf("%s event %d (kind %d): clean thread %d can issue op %d",
						g.name, events, ev.Kind, th.slot, th.next)
				}
				for i := 0; i < th.next; i++ {
					if k := e.startable(th, i); k != startNone {
						t.Fatalf("%s event %d (kind %d): clean thread %d can start op %d (start kind %d)",
							g.name, events, ev.Kind, th.slot, i, k)
					}
				}
			}
		})
		for i := 0; i < 40; i++ {
			if _, err := r.Run(); err != nil {
				t.Fatalf("%s iteration %d: %v", g.name, i, err)
			}
		}
		if events == 0 {
			t.Fatalf("%s: the wrapped handler saw no events", g.name)
		}
	}
}
