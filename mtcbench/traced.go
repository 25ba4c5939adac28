package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	mtc "mtracecheck"
	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// replay is one traced serial pass over a workload: the same campaign (or
// offline check) the untraced run performs, driven through the layers'
// public functions with every call timed.
type replay struct {
	// Busy time per layer, summed over calls.
	run, encode, add, sort, decode, edges, check time.Duration
	// wall is the pass's wall time, tracing overhead included.
	wall time.Duration
	// runNs holds each RunSeeded call's host time.
	runNs []float64
	c     counts
}

// counts is everything deterministic a replay observes: simulated work,
// merge and checker effort, and the verdicts. Two replays of one workload
// and seed must agree on every field.
type counts struct {
	iterations, asserts, uniques, quarantined int
	cycles, squashes                          int64
	mem                                       struct{ msgs, hits, misses, invals int64 }
	graphEdges                                int64 // dynamic edges over all graphs
	graphs                                    int
	sortedVertices, backwardEdges             int64
	violations                                int
	verdicts                                  string
}

// simulate executes the campaign's iteration sequence serially on one
// Runner, exactly as the campaign's workers do, and merges the signatures.
func simulate(rp *replay, meta *instrument.Meta, plat sim.Platform, p *mtc.Program,
	seed int64, iterations int) ([]sig.Unique, error) {
	runner, err := sim.NewRunner(plat, p, seed)
	if err != nil {
		return nil, err
	}
	seeds := sim.NewSeedStream(seed)
	set := sig.NewSet()
	var buf []uint64
	for i := 0; i < iterations; i++ {
		s := seeds.Next()
		t0 := time.Now()
		ex, err := runner.RunSeeded(s)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		rp.run += t1.Sub(t0)
		rp.runNs = append(rp.runNs, float64(t1.Sub(t0).Nanoseconds()))
		rp.c.iterations++
		rp.c.cycles += int64(ex.Cycles)
		rp.c.squashes += int64(ex.Squashes)
		ms := ex.MemStats
		rp.c.mem.msgs += ms.Messages
		rp.c.mem.hits += ms.Hits
		rp.c.mem.misses += ms.Misses
		rp.c.mem.invals += ms.Invalidations
		buf, err = meta.EncodeExecutionInto(buf[:0], ex.LoadValues)
		t2 := time.Now()
		rp.encode += t2.Sub(t1)
		if err != nil {
			var ae *instrument.AssertionError
			if !errors.As(err, &ae) {
				return nil, err
			}
			rp.c.asserts++
			continue
		}
		set.AddWords(buf)
		rp.add += time.Since(t2)
	}
	t0 := time.Now()
	uniques := set.Sorted()
	rp.sort = time.Since(t0)
	return uniques, nil
}

// hostCheck decodes the sorted uniques, builds their constraint edges and
// checks them with the collective checker, as the campaign's host side does.
func hostCheck(rp *replay, meta *instrument.Meta, builder *graph.Builder,
	uniques []sig.Unique) ([]check.Item, *check.Result, error) {
	rf := make([]int32, builder.NumOps())
	items := make([]check.Item, 0, len(uniques))
	for _, u := range uniques {
		t0 := time.Now()
		err := meta.DecodeInto(u.Sig, rf)
		t1 := time.Now()
		rp.decode += t1.Sub(t0)
		if err != nil {
			rp.c.quarantined++
			continue
		}
		edges, err := builder.AppendDynamicEdges(nil, rf, nil)
		rp.edges += time.Since(t1)
		if err != nil {
			rp.c.quarantined++
			continue
		}
		rp.c.graphEdges += int64(len(edges))
		items = append(items, check.Item{Sig: u.Sig, Edges: edges})
	}
	be, err := check.ForName("collective")
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	res, err := be.Check(context.Background(), builder, items)
	rp.check = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	rp.c.uniques = len(uniques)
	rp.c.graphs = res.Total
	rp.c.sortedVertices = res.SortedVertices
	rp.c.backwardEdges = res.BackwardEdges
	rp.c.violations = len(res.Violations)
	rp.c.verdicts = verdicts(res.Violations)
	return items, res, nil
}

// replayOnce runs one traced pass: simulate and check for a campaign, check
// only for an offline workload, whose input is pr.uniques.
func replayOnce(w workload, pr *prepared, meta *instrument.Meta) (*replay, error) {
	rp := &replay{}
	plat := pr.opts.Platform
	builder := graph.NewBuilder(pr.prog, plat.Model, graph.Options{
		Forwarding: plat.Atomicity.AllowsForwarding(),
		WS:         graph.WSStatic,
	})
	began := time.Now()
	uniques := pr.uniques
	if !w.offline {
		var err error
		uniques, err = simulate(rp, meta, plat, pr.prog, pr.opts.Seed, pr.opts.Iterations)
		if err != nil {
			return nil, err
		}
	}
	items, res, err := hostCheck(rp, meta, builder, uniques)
	if err != nil {
		return nil, err
	}
	rp.wall = time.Since(began)
	if w.buggy {
		// The paper's baseline checks every graph from scratch; it must reach
		// the collective checker's verdicts exactly.
		be, err := check.ForName("conventional")
		if err != nil {
			return nil, err
		}
		conv, err := be.Check(context.Background(), builder, items)
		if err != nil {
			return nil, err
		}
		if verdicts(conv.Violations) != rp.c.verdicts {
			return nil, fmt.Errorf("conventional backend found %d violations that differ from the collective checker's %d",
				len(conv.Violations), len(res.Violations))
		}
	}
	return rp, nil
}

// sameAsReport checks every count a replay shares with an untraced serial
// (Workers 1) report of the same workload and seed.
func (c counts) sameAsReport(r *mtc.Report) error {
	o := outcomeOf(r)
	type shared struct {
		iterations, asserts, uniques, quarantined, violations int
		cycles, squashes, sortedVertices, backwardEdges       int64
		verdicts                                              string
	}
	got := shared{c.iterations, c.asserts, c.uniques, c.quarantined, c.violations,
		c.cycles, c.squashes, c.sortedVertices, c.backwardEdges, c.verdicts}
	want := shared{o.iterations, o.asserts, o.uniques, o.quarantined, o.violations,
		o.cycles, int64(o.squashes), r.CheckStats.SortedVertices, r.CheckStats.BackwardEdges, o.verdicts}
	if got != want {
		return fmt.Errorf("traced replay %+v differs from untraced serial run %+v", got, want)
	}
	return nil
}

// traced measures the per-layer metrics. Before the timed rounds, the
// replay's unique set is checked against the untraced device side, and
// instrument.Analyze and the signature-file read are timed on their own.
// Rounds (see tracedRound) repeat until the budget is spent; every round's
// counts must match the first round's exactly.
func traced(w workload, seed int64, budget time.Duration, cacheDir string) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	input, err := w.ensureInput(cacheDir, seed)
	if err != nil {
		return nil, err
	}
	pr, err := w.setup(seed, workers, input)
	if err != nil {
		return nil, err
	}
	serial, err := pr.withWorkers(1)
	if err != nil {
		return nil, err
	}
	analyzeMs := make([]float64, setupReps)
	var meta *instrument.Meta
	for i := range analyzeMs {
		t0 := time.Now()
		if meta, err = instrument.Analyze(pr.prog, pr.opts.Platform.RegWidthBits, nil); err != nil {
			return nil, err
		}
		analyzeMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	var readMs []float64
	if w.offline {
		for range setupReps {
			t0 := time.Now()
			if err := readInput(input); err != nil {
				return nil, err
			}
			readMs = append(readMs, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	if err := sameUniques(w, pr, meta); err != nil {
		return nil, err
	}

	ops := pr.ops()
	var rounds []*replay
	var parWalls, serWalls []float64
	attempted := 0
	started := time.Now()
	for len(rounds) == 0 || time.Since(started) < budget {
		rp, parWall, serWall, err := tracedRound(w, pr, serial, meta)
		attempted += 3 * ops
		if err != nil {
			return nil, &failure{attempted, ops, err}
		}
		if len(rounds) > 0 && rp.c != rounds[0].c {
			return nil, &failure{attempted, ops, fmt.Errorf("traced round %d counts differ from the first", len(rounds))}
		}
		rounds = append(rounds, rp)
		parWalls = append(parWalls, parWall)
		serWalls = append(serWalls, serWall)
	}
	res := &result{attempted: attempted,
		metrics: layerMetrics(rounds, parWalls, serWalls, workers, pr.prog.NumOps())}
	res.metrics = append(res.metrics,
		metric{"instrument.analyze_ms", "ms", median(analyzeMs)},
		metric{"sig.read_ms", "ms", median(readMs)},
	)
	c := rounds[0].c
	res.notes = []string{
		fmt.Sprintf("workload %s seed %d: %d traced rounds, workers=%d", w.name, seed, len(rounds), workers),
		fmt.Sprintf("counts: iterations=%d uniques=%d assertion_failures=%d cycles=%d squashes=%d msgs=%d hits=%d misses=%d invals=%d",
			c.iterations, c.uniques, c.asserts, c.cycles, c.squashes, c.mem.msgs, c.mem.hits, c.mem.misses, c.mem.invals),
		fmt.Sprintf("counts: graphs=%d dynamic_edges=%d sorted_vertices=%d backward_edges=%d violations=%d quarantined=%d",
			c.graphs, c.graphEdges, c.sortedVertices, c.backwardEdges, c.violations, c.quarantined),
	}
	return res, nil
}

// tracedRound times one untraced run of par (Workers > 1), one of serial
// (Workers 1) and one traced serial replay. Both untraced runs must pass
// the output checks and agree on every worker-invariant count, and the
// replay must match the serial run on every count the two share.
func tracedRound(w workload, par, serial *prepared, meta *instrument.Meta) (rp *replay, parWall, serWall float64, err error) {
	var reports [2]*mtc.Report
	var walls [2]float64
	for i, p := range []*prepared{par, serial} {
		runtime.GC()
		t0 := time.Now()
		r, err := p.run(context.Background())
		walls[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, 0, err
		}
		if err := w.verify(outcomeOf(r)); err != nil {
			return nil, 0, 0, err
		}
		reports[i] = r
	}
	if a, b := outcomeOf(reports[0]), outcomeOf(reports[1]); a != b {
		return nil, 0, 0, fmt.Errorf("workers=%d run %+v differs from workers=1 run %+v", par.opts.Workers, a, b)
	}
	runtime.GC()
	if rp, err = replayOnce(w, par, meta); err != nil {
		return nil, 0, 0, err
	}
	if err := rp.c.sameAsReport(reports[1]); err != nil {
		return nil, 0, 0, err
	}
	return rp, walls[0], walls[1], nil
}

// readInput reads a stored signature set, the part of set-up sig.read_ms
// times.
func readInput(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = mtc.LoadSignaturesMeta(f)
	return err
}

// sameUniques checks the replay's merged unique set, signatures and counts,
// against the untraced device side: Campaign.Collect for a campaign, the
// stored input for an offline workload.
func sameUniques(w workload, pr *prepared, meta *instrument.Meta) error {
	var rp replay
	got, err := simulate(&rp, meta, pr.opts.Platform, pr.prog, pr.opts.Seed, pr.opts.Iterations)
	if err != nil {
		return err
	}
	want := pr.uniques
	if !w.offline {
		if want, err = pr.camp.Collect(context.Background()); err != nil {
			return err
		}
	}
	if !slices.EqualFunc(got, want, func(a, b sig.Unique) bool {
		return a.Count == b.Count && a.Sig.Equal(b.Sig)
	}) {
		return fmt.Errorf("traced replay merged %d uniques that differ from the untraced %d", len(got), len(want))
	}
	return nil
}

// layerMetrics turns the rounds into the per-layer metrics. Busy times are
// pooled over rounds; wall-time ratios are medians over rounds. A layer that
// does no work on the workload's measured route reports 0.
func layerMetrics(rounds []*replay, parWalls, serWalls []float64, workers, opsPerGraph int) []metric {
	var run, encode, add, decode, edges, chk time.Duration
	var runNs, sortMs, eff, tail, overhead []float64
	for i, rp := range rounds {
		run += rp.run
		encode += rp.encode
		add += rp.add
		decode += rp.decode
		edges += rp.edges
		chk += rp.check
		runNs = append(runNs, rp.runNs...)
		sortMs = append(sortMs, float64(rp.sort.Nanoseconds())/1e6)
		busy := rp.run + rp.encode + rp.add + rp.sort + rp.decode + rp.edges + rp.check
		eff = append(eff, busy.Seconds()/(parWalls[i]*float64(workers)))
		tail = append(tail, (rp.sort+rp.check).Seconds()/rp.wall.Seconds())
		overhead = append(overhead, rp.wall.Seconds()/serWalls[i]-1)
	}
	n := float64(len(rounds))
	c := rounds[0].c
	iters := n * float64(c.iterations)
	graphs := n * float64(c.graphs)
	per := func(total time.Duration, count float64, unit time.Duration) float64 {
		if count == 0 {
			return 0
		}
		return float64(total) / float64(unit) / count
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	iterCount := int64(c.iterations)
	return []metric{
		{"sim.run_us", "us", median(runNs) / 1e3},
		{"sim.run_p99_us", "us", quantile(runNs, 0.99) / 1e3},
		{"sim.ns_per_cycle", "ns", ratio(run.Nanoseconds(), int64(n)*c.cycles)},
		{"sim.ns_per_msg", "ns", ratio(run.Nanoseconds(), int64(n)*c.mem.msgs)},
		{"sim.cycles_per_iter", "cycles", ratio(c.cycles, iterCount)},
		{"sim.squashes_per_iter", "count", ratio(c.squashes, iterCount)},
		{"mem.msgs_per_iter", "count", ratio(c.mem.msgs, iterCount)},
		{"mem.misses_per_iter", "count", ratio(c.mem.misses, iterCount)},
		{"mem.invals_per_iter", "count", ratio(c.mem.invals, iterCount)},
		{"mem.hit_ratio", "ratio", ratio(c.mem.hits, c.mem.hits+c.mem.misses)},
		{"instrument.encode_ns", "ns", per(encode, iters, time.Nanosecond)},
		{"instrument.decode_us", "us", per(decode, n*float64(c.uniques), time.Microsecond)},
		{"sig.add_ns", "ns", per(add, iters-n*float64(c.asserts), time.Nanosecond)},
		{"sig.sort_ms", "ms", median(sortMs)},
		{"sig.uniques", "count", float64(c.uniques)},
		{"graph.edges_us", "us", per(edges, graphs, time.Microsecond)},
		{"graph.edges_per_graph", "count", ratio(c.graphEdges, int64(c.graphs))},
		{"check.us_per_graph", "us", per(chk, graphs, time.Microsecond)},
		{"check.sorted_vertices", "count", float64(c.sortedVertices)},
		{"check.resort_ratio", "ratio", ratio(c.sortedVertices, int64(c.graphs)*int64(opsPerGraph))},
		{"check.backward_edges", "count", float64(c.backwardEdges)},
		{"check.violations", "count", float64(c.violations)},
		{"campaign.parallel_eff", "ratio", median(eff)},
		{"campaign.tail_share", "ratio", median(tail)},
		{"trace.overhead_frac", "ratio", median(overhead)},
	}
}
