// Command mtcbench is the repository benchmark. It runs one named workload
// in a closed loop — one campaign or check at a time, in one process — and
// prints every end-to-end metric, or with -trace 1 every per-layer metric,
// ending with one JSON result line. Any failed output check ends the run
// with exit code 1 and no metric values. README.md documents the workloads
// and metrics; run.sh builds and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupsPerRep is how many times each untraced repetition sets up. setup_s
// is the median over the run, so set-up is sampled across the same stretch
// of time as the timed work rather than in one burst at the start.
const setupsPerRep = 4

// setupReps is how many times the traced run times instrument.Analyze and
// the signature-file read on their own; the metrics are the medians.
const setupReps = 31

// metric is one reported number. The names and units match BENCHMARK.json.
type metric struct {
	name  string
	unit  string
	value float64
}

// failure is a failed output check: the run reports no metric values and
// counts every operation of the failing repetition as failed.
type failure struct {
	attempted, failed int
	err               error
}

func (f *failure) Error() string { return f.err.Error() }

// result is a successful run: every output check passed, so no operation
// failed.
type result struct {
	metrics   []metric
	attempted int
	// notes are human-readable lines printed before the result line.
	notes []string
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign-x86, campaign-arm or check-gem5bug")
	seed := flag.Int64("seed", 1, "workload seed: drives the campaign seed stream")
	seconds := flag.Int("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced serial replay")
	cacheDir := flag.String("cache", ".cache", "directory for generated offline inputs")
	generate := flag.Bool("generate", false, "only generate and cache the offline workload's input")
	flag.Parse()
	w, err := workloadNamed(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtcbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	switch {
	case *generate && w.offline:
		err = w.writeInput(*cacheDir, *seed)
	case *generate:
	case *trace == 1:
		res, err = traced(w, *seed, budget, *cacheDir)
	default:
		res, err = untraced(w, *seed, budget, *cacheDir)
	}
	if err == nil && res != nil {
		for _, n := range res.notes {
			fmt.Println(n)
		}
		for _, m := range res.metrics {
			fmt.Printf("%-26s %16.6g %s\n", m.name, m.value, m.unit)
		}
		err = printResult(true, res.attempted, 0, res.metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtcbench: %s seed %d: %v\n", w.name, *seed, err)
		var f *failure
		if errors.As(err, &f) {
			printResult(false, f.attempted, f.failed, nil)
		}
		os.Exit(1)
	}
}

// printResult prints the JSON result line. It fails only on a metric value
// JSON cannot carry (NaN or infinity).
func printResult(correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untraced measures the end-to-end metrics. Each repetition sets up
// afresh, setupsPerRep times, and then runs the timed operation once;
// repetition 0 is a warm-up, and repetitions continue until the budget is
// spent. Every repetition is checked and must match the first exactly.
func untraced(w workload, seed int64, budget time.Duration, cacheDir string) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	input, err := w.ensureInput(cacheDir, seed)
	if err != nil {
		return nil, err
	}
	var setups, walls, allocs []float64
	var first outcome
	var pr *prepared
	var effort string
	attempted := 0
	ctx := context.Background()
	var started time.Time
	for rep := 0; rep < 2 || time.Since(started) < budget; rep++ {
		if rep == 1 {
			started = time.Now()
		}
		for range setupsPerRep {
			t0 := time.Now()
			if pr, err = w.setup(seed, workers, input); err != nil {
				return nil, err
			}
			if rep > 0 {
				setups = append(setups, time.Since(t0).Seconds())
			}
		}
		ops := pr.ops()
		// Each repetition starts from a collected heap, as a campaign in a
		// fresh CLI process does, so neither the memory figures nor the
		// timings depend on garbage left by the previous repetition.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		report, err := pr.run(ctx)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		attempted += ops
		if err != nil {
			return nil, &failure{attempted, ops, err}
		}
		o := outcomeOf(report)
		if err := w.verify(o); err != nil {
			return nil, &failure{attempted, ops, err}
		}
		if rep == 0 {
			first = o
			effort = fmt.Sprintf("counts: checker sorted_vertices=%d backward_edges=%d (workers=%d)",
				report.CheckStats.SortedVertices, report.CheckStats.BackwardEdges, workers)
			continue
		}
		if o != first {
			return nil, &failure{attempted, ops, fmt.Errorf("repetition %d differs from the first: %+v vs %+v", rep, o, first)}
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	iters := first.iterations
	if w.offline {
		iters = pr.inputIters
	}
	itersPerS := make([]float64, len(walls))
	sigsPerS := make([]float64, len(walls))
	for i, s := range walls {
		itersPerS[i] = float64(iters) / s
		sigsPerS[i] = float64(first.uniques) / s
	}
	res := &result{
		attempted: attempted,
		metrics: []metric{
			{"setup_s", "s", median(setups)},
			{"iters_per_s", "1/s", median(itersPerS)},
			{"sigs_checked_per_s", "1/s", median(sigsPerS)},
			{"uniques_per_iter", "ratio", float64(first.uniques) / float64(iters)},
			{"alloc_mb", "MB", median(allocs)},
		},
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, metric{"rss_peak_mb", "MB", rss})
	res.notes = []string{
		fmt.Sprintf("workload %s seed %d: %d timed repetitions after 1 warm-up, %d set-ups, workers=%d",
			w.name, seed, len(walls), len(setups), workers),
		fmt.Sprintf("counts: iterations=%d uniques=%d violations=%d assertion_failures=%d quarantined=%d cycles=%d squashes=%d",
			iters, first.uniques, first.violations, first.asserts, first.quarantined, first.cycles, first.squashes),
		effort,
		fmt.Sprintf("iters_per_s over repetitions: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g",
			quantile(itersPerS, 0), quantile(itersPerS, 0.25), median(itersPerS), quantile(itersPerS, 0.75), quantile(itersPerS, 1)),
	}
	return res, nil
}

// rssPeakMB is the resident-set high-water mark of this process image
// (VmHWM). getrusage's ru_maxrss is not used: Linux carries it over from
// the image that exec'd the benchmark, which would count the launcher's
// memory.
func rssPeakMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
