package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mtracecheck/internal/instrument"
)

// short returns w with a campaign short enough for a unit test.
func short(w workload) workload {
	w.iterations = 192
	return w
}

// prepare sets up w for seed with the given worker count, generating an
// offline input in cacheDir first.
func prepare(t *testing.T, w workload, seed int64, workers int, cacheDir string) *prepared {
	t.Helper()
	if w.offline {
		// The test binary cannot serve as the generating child process.
		if err := w.writeInput(cacheDir, seed); err != nil {
			t.Fatal(err)
		}
	}
	input, err := w.ensureInput(cacheDir, seed)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := w.setup(seed, workers, input)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestDeterministicCounts requires the deterministic counts — simulated
// work, merged uniques, checker effort and verdicts — to be identical
// across two traced rounds, and the untraced outcome to be identical at
// Workers 1 and at Workers = GOMAXPROCS (at least 2).
func TestDeterministicCounts(t *testing.T) {
	const seed = 3
	workers := max(2, runtime.GOMAXPROCS(0))
	cacheDir := t.TempDir()
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			par := prepare(t, w, seed, workers, cacheDir)
			serial, err := par.withWorkers(1)
			if err != nil {
				t.Fatal(err)
			}
			meta, err := instrument.Analyze(par.prog, par.opts.Platform.RegWidthBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameUniques(w, par, meta); err != nil {
				t.Fatal(err)
			}
			first, _, _, err := tracedRound(w, par, serial, meta)
			if err != nil {
				t.Fatal(err)
			}
			second, _, _, err := tracedRound(w, par, serial, meta)
			if err != nil {
				t.Fatal(err)
			}
			if first.c != second.c {
				t.Fatalf("counts differ between rounds:\n%+v\n%+v", first.c, second.c)
			}
			if first.c.uniques == 0 || first.c.sortedVertices == 0 {
				t.Fatalf("replay did no work: %+v", first.c)
			}
			if !w.offline && (first.c.cycles == 0 || first.c.mem.msgs == 0) {
				t.Fatalf("campaign replay simulated nothing: %+v", first.c)
			}
		})
	}
}

// TestVerifyRejectsWrongOutputs checks that the output checks fail a clean
// workload with a violation and a buggy one without.
func TestVerifyRejectsWrongOutputs(t *testing.T) {
	clean, buggy := workloads[0], workloads[2]
	if clean.buggy || !buggy.buggy {
		t.Fatal("workload table order changed")
	}
	cases := []struct {
		w    workload
		o    outcome
		fail bool
	}{
		{clean, outcome{uniques: 5}, false},
		{clean, outcome{uniques: 5, violations: 1}, true},
		{clean, outcome{uniques: 5, asserts: 1}, true},
		{clean, outcome{uniques: 5, lost: 64}, true},
		{buggy, outcome{uniques: 5, violations: 2}, false},
		{buggy, outcome{uniques: 5}, true},
		{buggy, outcome{uniques: 5, violations: 2, quarantined: 1}, true},
	}
	for _, c := range cases {
		if err := c.w.verify(c.o); (err != nil) != c.fail {
			t.Errorf("%s %+v: verify error %v, want failure %v", c.w.name, c.o, err, c.fail)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes on a short campaign and
// requires them to print exactly the metrics, with the units, that
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, err := workloadNamed(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark has %d", names, len(workloads))
	}
	w := short(workloads[0])
	cacheDir := t.TempDir()
	for _, mode := range []struct {
		run  func(workload, int64, time.Duration, string) (*result, error)
		want []spec
	}{{untraced, bench.EndToEnd}, {traced, bench.PerLayer}} {
		res, err := mode.run(w, 1, time.Millisecond, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		got := map[spec]bool{}
		for _, m := range res.metrics {
			got[spec{m.name, m.unit}] = true
		}
		for _, s := range mode.want {
			if !got[s] {
				t.Errorf("metric %s (%s) declared but not reported", s.Name, s.Unit)
			}
		}
		if len(got) != len(mode.want) || len(res.metrics) != len(mode.want) {
			t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.metrics), len(mode.want))
		}
	}
}
