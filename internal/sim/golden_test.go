package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// goldenPlatform is one platform of the per-iteration counter golden.
type goldenPlatform struct {
	name string
	plat Platform
	prog *prog.Program
}

// goldenPlatforms covers every engine path the simulator has: both presets,
// the SC and PSO store-ordering variants of the x86 timing, OS scheduling
// with more threads than cores (rotation with migration) and with every
// thread fitting (housekeeping preemptions), and the three §7 bug platforms.
func goldenPlatforms() []goldenPlatform {
	base := testgen.MustGenerate(testgen.Config{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	wide := testgen.MustGenerate(testgen.Config{Threads: 6, OpsPerThread: 40, Words: 8, Seed: 5})
	// Bug 1 needs false sharing to fire: four words per cache line.
	shared := testgen.MustGenerate(testgen.Config{Threads: 4, OpsPerThread: 40, Words: 8, WordsPerLine: 4, Seed: 5})
	// The writeback race only deadlocks under line-contended stores.
	hot := testgen.MustGenerate(testgen.Config{
		Threads: 7, OpsPerThread: 60, Words: 64, LoadRatio: 0.3, Seed: 3,
	})
	withModel := func(p Platform, m mcm.Model) Platform { p.Model = m; return p }
	withOS := func(p Platform) Platform {
		p.OS = OSConfig{Enabled: true, Quantum: 400, QuantumJitter: 120, Migrate: true}
		return p
	}
	return []goldenPlatform{
		{"x86", PlatformX86(), base},
		{"arm", PlatformARM(), base},
		{"x86_sc", withModel(PlatformX86(), mcm.SC), base},
		{"x86_pso", withModel(PlatformX86(), mcm.PSO), base},
		{"x86_os", withOS(PlatformX86()), wide},
		{"x86_os_fit", withOS(PlatformX86()), base},
		{"gem5_bug1", PlatformGem5(mem.Bugs{StaleSMInv: true}, Bugs{}), shared},
		{"gem5_bug2", PlatformGem5(mem.Bugs{}, Bugs{LQSquashSkip: true}), base},
		{"gem5_bug3", PlatformGem5(mem.Bugs{WBRaceDeadlock: true}, Bugs{}), hot},
	}
}

// TestIterationCountersGolden pins the simulator's deterministic work
// counters — events dispatched, simulated cycles, coherence messages and
// load squashes — for every iteration of a fixed seed-stream slice on every
// platform, crashes included. The counters are functions of the iteration
// seed alone, so any change to event order, RNG draw order or tie-breaking
// moves at least one line. Performance work on the engine, the event queue
// or the memory system must leave every file byte-identical.
//
// Regenerate with MTC_UPDATE_GOLDENS=1 (only legitimate for a change that
// intentionally alters simulated timing).
func TestIterationCountersGolden(t *testing.T) {
	update := os.Getenv("MTC_UPDATE_GOLDENS") == "1"
	dir := filepath.Join("testdata", "iteration_goldens")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seeds := SeedTable(31, 96)
	for _, g := range goldenPlatforms() {
		r, err := NewRunner(g.plat, g.prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var b strings.Builder
		for i, seed := range seeds {
			ex, err := r.RunSeeded(seed)
			switch {
			case errors.Is(err, ErrDeadlock):
				fmt.Fprintf(&b, "%d crash=deadlock\n", i)
			case errors.Is(err, ErrLivelock):
				fmt.Fprintf(&b, "%d crash=livelock\n", i)
			case err != nil:
				t.Fatalf("%s iteration %d: %v", g.name, i, err)
			default:
				fmt.Fprintf(&b, "%d events=%d cycles=%d msgs=%d squashes=%d\n",
					i, ex.Events, ex.Cycles, ex.MemStats.Messages, ex.Squashes)
			}
		}
		path := filepath.Join(dir, g.name+".txt")
		if update {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with MTC_UPDATE_GOLDENS=1): %v", g.name, err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: per-iteration counters differ from golden:\n%s", g.name, firstDiff(got, string(want)))
		}
	}
}

// firstDiff renders the first differing line of two golden texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf(" got %q\nwant %q", gl, wl)
		}
	}
	return "(identical lines, differing length)"
}
