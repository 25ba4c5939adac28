package mtracecheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// TestNoFalsePositivesSweep is the framework's central soundness property:
// executions produced by a defect-free platform under model M must never be
// flagged when checked against M — across models, write-serialization
// modes, false-sharing layouts, and checker implementations. (The paper's
// §8 footnote recounts exactly such a false-positive episode, caused by a
// wrong store-atomicity assumption.)
func TestNoFalsePositivesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgs := []TestConfig{
		{Threads: 2, OpsPerThread: 40, Words: 4, Seed: 1},
		{Threads: 4, OpsPerThread: 30, Words: 8, WordsPerLine: 4, Seed: 2},
		{Threads: 3, OpsPerThread: 30, Words: 4, FenceProb: 0.15, Seed: 3},
	}
	for _, model := range mcm.Models {
		for _, tc := range cfgs {
			plat := PlatformX86()
			plat.Model = model
			plat.AllocOrder = nil
			p := testgen.MustGenerate(tc)
			meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := sim.NewRunner(plat, p, 17)
			if err != nil {
				t.Fatal(err)
			}
			set := sig.NewSet()
			wsBySig := map[string]graph.WS{}
			for i := 0; i < 80; i++ {
				ex, err := runner.Run()
				if err != nil {
					t.Fatalf("%v %s: %v", model, tc.Name(), err)
				}
				s, err := meta.EncodeValues(ex.LoadValues)
				if err != nil {
					t.Fatalf("%v %s: assertion on clean platform: %v", model, tc.Name(), err)
				}
				if set.Add(s) {
					wsBySig[s.Key()] = ex.WSByWord()
				}
			}
			for _, ws := range []graph.WSMode{graph.WSStatic, graph.WSObserved} {
				builder := graph.NewBuilder(p, model, graph.Options{
					Forwarding: true, WS: ws,
				})
				items, _, err := decodeItems(context.Background(), meta, builder, set.Sorted(), wsBySig,
					runtime.GOMAXPROCS(0), true, emitter{})
				if err != nil {
					t.Fatal(err)
				}
				conv := check.Conventional(builder, items)
				coll, err := check.Collective(builder, items)
				if err != nil {
					t.Fatal(err)
				}
				if len(conv.Violations) != 0 || len(coll.Violations) != 0 {
					t.Errorf("%v %s ws=%d: false positives (conv %d, coll %d)",
						model, tc.Name(), ws, len(conv.Violations), len(coll.Violations))
				}
			}
		}
	}
}

// TestEngineGoldenSignatures is the engine's bit-identity guard: fixed-seed
// campaigns — clean and fault-injected on both platform presets, the SC and
// PSO variants of the x86 timing, OS scheduling with more threads than
// cores, and the §7 bug platforms, at one and four workers — must
// reproduce, byte for byte, the recorded signature files and report
// digests. The x86/ARM clean and faulted goldens predate the typed-event
// engine; the rest were recorded on it before the timing-wheel queue. Any
// drift in RNG draw order, event tie-breaking, or completion sequencing
// shows up here first.
//
// Regenerate the goldens with MTC_UPDATE_GOLDENS=1 (only ever legitimate
// for a change that intentionally alters simulated timing).
func TestEngineGoldenSignatures(t *testing.T) {
	update := os.Getenv("MTC_UPDATE_GOLDENS") == "1"
	dir := filepath.Join("testdata", "engine_goldens")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	p := testgen.MustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	// Six threads on four cores: OS mode must rotate and migrate them.
	wide := testgen.MustGenerate(TestConfig{Threads: 6, OpsPerThread: 40, Words: 8, Seed: 5})
	// Bug 1 needs false sharing to fire: four words per cache line.
	shared := testgen.MustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, WordsPerLine: 4, Seed: 5})
	faults := FaultConfig{
		Seed: 99, BitFlip: 0.05, Truncate: 0.03, Duplicate: 0.05, OutOfRange: 0.03,
		ShardPanic: 0.1, ShardStall: 0.05, StallFor: time.Millisecond,
	}
	withModel := func(p Platform, m mcm.Model) Platform { p.Model = m; return p }
	cases := []struct {
		name  string
		plat  Platform
		prog  *Program
		fault FaultConfig
	}{
		{"x86_clean", PlatformX86(), p, FaultConfig{}},
		{"x86_fault", PlatformX86(), p, faults},
		{"arm_clean", PlatformARM(), p, FaultConfig{}},
		{"arm_fault", PlatformARM(), p, faults},
		{"x86_os", WithOS(PlatformX86()), wide, FaultConfig{}},
		{"x86_sc", withModel(PlatformX86(), mcm.SC), p, FaultConfig{}},
		{"x86_pso", withModel(PlatformX86(), mcm.PSO), p, FaultConfig{}},
		{"gem5_bug1", BuggyPlatform(BugSMInv), shared, FaultConfig{}},
		{"gem5_bug2", BuggyPlatform(BugLSQSkip), p, FaultConfig{}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			opts := Options{
				Platform: c.plat, Iterations: 512, Seed: 31, Workers: workers,
				ShardRetries: 2, Fault: c.fault,
			}
			report, err := RunProgram(c.prog, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			uniques, err := CollectSignatures(c.prog, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: collect: %v", c.name, workers, err)
			}
			var sigBuf bytes.Buffer
			if err := SaveSignatures(&sigBuf, report, uniques); err != nil {
				t.Fatal(err)
			}
			digest := fmt.Sprintf(
				"iters=%d uniques=%d cycles=%d squashes=%d violations=%d quarantined=%d asserts=%d shardfail=%d\n",
				report.Iterations, report.UniqueSignatures, report.TotalCycles,
				report.Squashes, len(report.Violations), len(report.Quarantined),
				len(report.AssertionFailures), len(report.ShardFailures))
			compareEngineGolden(t, dir, c.name, fmt.Sprintf("workers=%d", workers),
				update && workers == 1, sigBuf.Bytes(), digest)
		}
	}

	// Bug 3 deadlocks the protocol, and a campaign aborts at its first
	// crash. Its golden is therefore a tally over the campaign's seed
	// stream: how many iterations crashed, and the signatures and counters
	// of the ones that completed.
	hot := testgen.MustGenerate(TestConfig{
		Threads: 7, OpsPerThread: 60, Words: 64, LoadRatio: 0.3, Seed: 3,
	})
	plat := BuggyPlatform(BugWBRace)
	meta, err := instrument.Analyze(hot, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, hot, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := sig.NewSet()
	var deadlocks, livelocks, cycles, squashes, events int
	seeds := sim.SeedTable(31, 256)
	for i, seed := range seeds {
		ex, err := runner.RunSeeded(seed)
		switch {
		case errors.Is(err, sim.ErrDeadlock):
			deadlocks++
			continue
		case errors.Is(err, sim.ErrLivelock):
			livelocks++
			continue
		case err != nil:
			t.Fatalf("gem5_bug3 iteration %d: %v", i, err)
		}
		cycles += int(ex.Cycles)
		squashes += ex.Squashes
		events += ex.Events
		s, err := meta.EncodeValues(ex.LoadValues)
		if err != nil {
			t.Fatalf("gem5_bug3 iteration %d: %v", i, err)
		}
		set.Add(s)
	}
	if deadlocks+livelocks == 0 {
		t.Fatal("gem5_bug3: no crashes; the golden would not cover the crash path")
	}
	var sigBuf bytes.Buffer
	if err := sig.WriteSet(&sigBuf, set.Sorted()); err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf(
		"iters=%d crashes=%d deadlocks=%d livelocks=%d uniques=%d cycles=%d squashes=%d events=%d\n",
		len(seeds), deadlocks+livelocks, deadlocks, livelocks, set.Len(), cycles, squashes, events)
	compareEngineGolden(t, dir, "gem5_bug3", "tally", update, sigBuf.Bytes(), digest)
}

// compareEngineGolden checks one engine golden's signature file and digest,
// first writing them when update is set.
func compareEngineGolden(t *testing.T, dir, name, variant string, update bool, sigs []byte, digest string) {
	t.Helper()
	sigPath := filepath.Join(dir, name+".sigs")
	digPath := filepath.Join(dir, name+".digest")
	if update {
		if err := os.WriteFile(sigPath, sigs, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digPath, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSigs, err := os.ReadFile(sigPath)
	if err != nil {
		t.Fatalf("%s: missing golden (run with MTC_UPDATE_GOLDENS=1): %v", name, err)
	}
	if !bytes.Equal(sigs, wantSigs) {
		t.Errorf("%s %s: signature file differs from golden (%d vs %d bytes)",
			name, variant, len(sigs), len(wantSigs))
	}
	wantDig, err := os.ReadFile(digPath)
	if err != nil {
		t.Fatal(err)
	}
	if digest != string(wantDig) {
		t.Errorf("%s %s: report digest differs from golden:\n got %s want %s",
			name, variant, digest, wantDig)
	}
}

// TestStrongerModelExecutionsPassWeakerChecks: an execution legal under a
// strong model is legal under every weaker model (the relaxation lattice).
func TestStrongerModelExecutionsPassWeakerChecks(t *testing.T) {
	tc := TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}
	p := testgen.MustGenerate(tc)
	plat := PlatformX86()
	plat.Model = mcm.SC
	plat.AllocOrder = nil
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 23)
	if err != nil {
		t.Fatal(err)
	}
	set := sig.NewSet()
	wsBySig := map[string]graph.WS{}
	for i := 0; i < 60; i++ {
		ex, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		s, err := meta.EncodeValues(ex.LoadValues)
		if err != nil {
			t.Fatal(err)
		}
		if set.Add(s) {
			wsBySig[s.Key()] = ex.WSByWord()
		}
	}
	for _, model := range mcm.Models {
		builder := graph.NewBuilder(p, model, graph.Options{Forwarding: true, WS: graph.WSObserved})
		items, _, err := decodeItems(context.Background(), meta, builder, set.Sorted(), wsBySig,
			runtime.GOMAXPROCS(0), true, emitter{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := check.Collective(builder, items)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("SC executions flagged under %v: %d violations", model, len(res.Violations))
		}
	}
}
