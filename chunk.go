package mtracecheck

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// Every campaign merges through one path. A ChunkRunner executes chunks of
// the worker-invariant execution grid; a ChunkMerger is the only
// accumulator of their results. In-process Run and Collect feed the merger
// from their reorder buffer, the distributed server from worker uploads,
// and all of them finish through the same sort barrier: sort, corrupt,
// merge-done, decode and check, campaign-end. Decode happens only there,
// once, in parallel (decodeItems).
//
// The exported half of the API serves out-of-process execution: the
// distributed service leases grid chunks to remote workers and merges their
// results here. Three properties make remote execution safe and its
// failures recoverable:
//
//   - Any runner can execute any chunk: each chunk carries its slice of the
//     campaign's per-iteration seed stream, so a chunk's signatures and
//     counters are a pure function of (program, options, chunk index).
//   - Because of that purity, a chunk re-executed by a different worker —
//     after a crash, hang, or partition — produces bit-identical results,
//     so redispatch and duplicate completions are harmless.
//   - ChunkMerger.Absorb deduplicates by chunk index and Report assembles
//     assertion failures in ascending chunk order, so the merged report is
//     identical to a single-process run regardless of which workers
//     computed which chunks, in what order, or how many times.

// ChunkSize is the campaign execution grid's granule: chunk i covers
// iterations [i*ChunkSize, min((i+1)*ChunkSize, Iterations)). It equals the
// in-process scheduler's granule, so fault plans and retry outcomes keyed by
// chunk bounds agree between local and distributed execution.
const ChunkSize = execChunkSize

// NumChunks returns the number of chunks in the campaign's execution grid.
func (c *Campaign) NumChunks() int {
	return (c.opts.Iterations + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the global iteration range [start, start+count) of
// one grid chunk.
func (c *Campaign) ChunkBounds(idx int) (start, count int) {
	start = idx * ChunkSize
	count = min(ChunkSize, c.opts.Iterations-start)
	return start, count
}

// SignatureWords returns the per-signature word count every chunk result
// must carry — the upload-validation width for remote results.
func (c *Campaign) SignatureWords() int { return c.meta.TotalWords() }

// chunkable rejects option combinations the exported chunk API cannot
// honor: remote chunk results must be self-contained and worker-invariant,
// which rules out recorded write serializations, retained executions, and
// prefix-resume. In-process campaigns support all three through the same
// merger.
func (c *Campaign) chunkable() error {
	switch {
	case c.opts.ObservedWS:
		return errors.New("mtracecheck: chunked execution requires the static ws mode")
	case c.opts.KeepExecutions:
		return errors.New("mtracecheck: chunked execution cannot retain executions")
	case c.opts.Resume:
		return errors.New("mtracecheck: chunked execution resumes through ChunkMerger.Restore, not Options.Resume")
	case c.opts.Iterations <= 0:
		return errors.New("mtracecheck: chunked execution requires Iterations > 0")
	}
	return nil
}

// ChunkStats is one executed chunk's accounting, serializable for the wire.
// Asserts carries assertion-failure messages (paper bug class 2) rather
// than structured errors so results survive transport.
type ChunkStats struct {
	Iterations int
	Cycles     int64
	Squashes   int
	Asserts    []string
}

// ChunkResult is one executed chunk: its grid coordinates, accounting, and
// the sorted unique signatures it observed. Results are bit-identical
// regardless of which ChunkRunner computed them.
type ChunkResult struct {
	Chunk   int
	Start   int
	Count   int
	Stats   ChunkStats
	Uniques []Unique

	// In-process state that never crosses the wire.
	execs    []*sim.Execution    // retained executions (Options.KeepExecutions)
	asserts  []error             // structured assertion failures behind Stats.Asserts
	ws       map[string]graph.WS // sig key -> first-observation ws (ObservedWS)
	attempts int
	err      error
}

// ChunkRunner executes chunks on a private simulator runner, reusing it
// across chunks (and rebuilding it after a panicking attempt). It is owned
// by a single goroutine.
type ChunkRunner struct {
	c      *Campaign
	runner *sim.Runner
	// seeds is Run's grid seed stream, positioned after the last chunk it
	// ran: leases mostly move forward, so each chunk skips only the gap.
	seeds *sim.SeedStream
}

// NewChunkRunner validates that the campaign's options permit chunked
// execution and returns a runner for its grid.
func (c *Campaign) NewChunkRunner() (*ChunkRunner, error) {
	if err := c.chunkable(); err != nil {
		return nil, err
	}
	return c.newChunkRunner()
}

func (c *Campaign) newChunkRunner() (*ChunkRunner, error) {
	r, err := sim.NewRunner(c.opts.Platform, c.prog, c.opts.Seed)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{c: c, runner: r}, nil
}

// Run executes one grid chunk with the campaign's full retry/backoff and
// fault-injection semantics and returns its result. On failure the result
// still carries the final attempt's partial accounting; the error is
// ErrCrash for platform findings, ErrShardFailed for infra failures that
// survived every retry, or the context's error.
func (cr *ChunkRunner) Run(ctx context.Context, idx int) (*ChunkResult, error) {
	c := cr.c
	if idx < 0 || idx >= c.NumChunks() {
		return nil, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", idx, c.NumChunks())
	}
	start, count := c.ChunkBounds(idx)
	if cr.seeds == nil || cr.seeds.Pos() > start {
		cr.seeds = sim.NewSeedStream(c.opts.Seed)
	}
	cr.seeds.Skip(start - cr.seeds.Pos())
	seeds := make([]int64, count)
	cr.seeds.Fill(seeds)
	res := cr.run(ctx, 0, start, count, seeds)
	res.Chunk = idx
	return res, res.err
}

// run drives one chunk to completion, re-running it from the chunk start
// after transient failures (recovered panics, expired shard deadlines) with
// capped exponential backoff. Each attempt restarts the chunk's seed slice
// from the top, so a retried chunk replays bit-identically. A panicking
// attempt may leave the sim.Runner's reusable platform state corrupt, so
// the runner is dropped and rebuilt before any reuse — the next attempt, or
// the next chunk when the failure exhausted its retries. Platform crashes
// are findings and parent cancellation is final; neither is retried. A
// chunk still failing after every retry returns its final partial attempt
// with the failure wrapped in ErrShardFailed. worker is the observer lane.
func (cr *ChunkRunner) run(ctx context.Context, worker, start, count int, seeds []int64) *ChunkResult {
	c, opts := cr.c, cr.c.opts
	backoff := time.Millisecond
	const maxBackoff = 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if cr.runner == nil {
			r, err := sim.NewRunner(opts.Platform, c.prog, opts.Seed)
			if err != nil {
				return &ChunkResult{Start: start, Count: count, attempts: attempt + 1, err: err}
			}
			cr.runner = r
		}
		shardCtx, cancel := ctx, context.CancelFunc(func() {})
		if opts.ShardTimeout > 0 {
			shardCtx, cancel = context.WithTimeout(ctx, opts.ShardTimeout)
		}
		var src sim.Source = &seededSource{r: cr.runner, seeds: seeds}
		if c.inj != nil {
			src = c.inj.WrapShard(shardCtx, src, start, count, attempt)
		}
		began := time.Now()
		c.em.shardStart(obs.StageExecute, worker, attempt, start, count, began)
		out := runShardAttempt(shardCtx, src, c.meta, opts, start, count)
		cancel()
		out.attempts = attempt + 1
		if errors.Is(out.err, errShardPanic) {
			// The panic may have unwound mid-iteration; the runner's
			// reusable state is suspect.
			cr.runner = nil
		}
		willRetry := out.err != nil && retryable(out.err, ctx) && attempt < opts.ShardRetries
		if out.err != nil && retryable(out.err, ctx) && !willRetry {
			out.err = fmt.Errorf("%w: iterations [%d,%d) after %d attempts: %v",
				ErrShardFailed, start, start+count, attempt+1, out.err)
		}
		retrySleep := time.Duration(0)
		if willRetry {
			retrySleep = backoff
		}
		c.em.execShardEnd(worker, out, began, willRetry, retrySleep)
		if !willRetry {
			return out
		}
		select {
		case <-ctx.Done():
			out.err = ctx.Err()
			return out
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// assertFailure carries a transported assertion-failure message in the
// report's AssertionFailures list.
type assertFailure string

func (a assertFailure) Error() string { return string(a) }

// ChunkMerger accumulates chunk results into a campaign report. Absorb is
// idempotent per chunk index — duplicate completions (stragglers, retried
// uploads, redispatch races) merge to the same state — and Report assembles
// assertion failures in ascending chunk order, so the outcome is
// independent of completion order. Not safe for concurrent use; callers
// serialize.
type ChunkMerger struct {
	c       *Campaign
	began   time.Time
	report  *Report             // execution accounting, folded in per chunk
	acc     *sig.Set            // campaign-wide dedup accumulator
	wsBySig map[string]graph.WS // first-global-observation ws (ObservedWS)
	keyBuf  []byte              // binary-key scratch for the ws capture
	final   []Unique            // post-injection set, recorded at the barrier

	// Grid bookkeeping for out-of-order absorption (NewChunkMerger only;
	// in-process chunks arrive in order and need none).
	stats []ChunkStats // per chunk; valid where done[i]
	done  []bool
	nDone int
}

// newChunkMerger returns an empty merger and emits the campaign-start
// event: the merger's lifetime brackets the observable campaign.
func (c *Campaign) newChunkMerger() *ChunkMerger {
	m := &ChunkMerger{c: c, began: time.Now(), report: c.newReport(), acc: sig.NewSet()}
	if c.opts.ObservedWS {
		m.wsBySig = make(map[string]graph.WS)
	}
	c.em.campaignStart(c.prog, c.opts, c.opts.Iterations, c.workers, m.began)
	return m
}

// NewChunkMerger returns an empty merger over the campaign's grid — the
// distributed campaign's host side.
func (c *Campaign) NewChunkMerger() (*ChunkMerger, error) {
	if err := c.chunkable(); err != nil {
		return nil, err
	}
	m := c.newChunkMerger()
	n := c.NumChunks()
	m.stats, m.done = make([]ChunkStats, n), make([]bool, n)
	return m, nil
}

// Done returns how many grid chunks have been absorbed.
func (m *ChunkMerger) Done() int { return m.nDone }

// IsDone reports whether one chunk has been absorbed.
func (m *ChunkMerger) IsDone(idx int) bool {
	return idx >= 0 && idx < len(m.done) && m.done[idx]
}

// Complete reports whether every grid chunk has been absorbed.
func (m *ChunkMerger) Complete() bool { return m.nDone == len(m.done) }

// Merged returns the sorted unique signatures absorbed so far — the
// checkpoint payload.
func (m *ChunkMerger) Merged() []Unique { return m.acc.Sorted() }

// Final returns the post-injection unique set the report was checked
// against — what SaveSignatures persists. Nil until Report has run.
func (m *ChunkMerger) Final() []Unique { return m.final }

// Stats returns one absorbed chunk's accounting (the zero value when the
// chunk is not done).
func (m *ChunkMerger) Stats(idx int) ChunkStats {
	if !m.IsDone(idx) {
		return ChunkStats{}
	}
	return m.stats[idx]
}

// Absorb folds one chunk result into the merger. It returns false with no
// state change when the chunk was already absorbed (a deduplicated
// duplicate completion), and an error when the result does not fit the
// campaign's grid — wrong bounds, wrong signature width, impossible
// counters — which the distributed server treats as a validation strike
// against the uploading worker.
func (m *ChunkMerger) Absorb(r *ChunkResult) (fresh bool, err error) {
	if r == nil {
		return false, errors.New("mtracecheck: nil chunk result")
	}
	if r.Chunk < 0 || r.Chunk >= len(m.done) {
		return false, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", r.Chunk, len(m.done))
	}
	start, count := m.c.ChunkBounds(r.Chunk)
	if r.Start != start || r.Count != count {
		return false, fmt.Errorf("mtracecheck: chunk %d claims iterations [%d,%d), grid says [%d,%d)",
			r.Chunk, r.Start, r.Start+r.Count, start, start+count)
	}
	if r.Stats.Iterations != count {
		return false, fmt.Errorf("mtracecheck: chunk %d completed %d of %d iterations",
			r.Chunk, r.Stats.Iterations, count)
	}
	words := m.c.SignatureWords()
	for i := range r.Uniques {
		if r.Uniques[i].Sig.Len() != words {
			return false, fmt.Errorf("mtracecheck: chunk %d signature %d has %d words, campaign signatures have %d",
				r.Chunk, i, r.Uniques[i].Sig.Len(), words)
		}
		if r.Uniques[i].Count <= 0 {
			return false, fmt.Errorf("mtracecheck: chunk %d signature %d claims %d observations",
				r.Chunk, i, r.Uniques[i].Count)
		}
	}
	if m.done[r.Chunk] {
		return false, nil
	}
	m.stats[r.Chunk] = r.Stats
	m.done[r.Chunk] = true
	m.nDone++
	// Only the wire fields cross; Report assembles the assertion messages.
	m.absorb(&ChunkResult{Stats: r.Stats, Uniques: r.Uniques})
	return true, nil
}

// absorb folds one chunk into the merged state: report accounting,
// incremental dedup, and first-observation ws capture. The in-process
// reorder buffer calls it strictly in chunk order, so every order-sensitive
// output here — retained executions, assertion failures, the recorded ws —
// is independent of worker count and completion schedule.
func (m *ChunkMerger) absorb(r *ChunkResult) {
	rep := m.report
	rep.Iterations += r.Stats.Iterations
	rep.TotalCycles += r.Stats.Cycles
	rep.Squashes += r.Stats.Squashes
	rep.Executions = append(rep.Executions, r.execs...)
	rep.AssertionFailures = append(rep.AssertionFailures, r.asserts...)
	for _, u := range r.Uniques {
		if !m.acc.AddUnique(u) || m.wsBySig == nil {
			continue
		}
		// New to the campaign means first observed in this chunk, and
		// chunks land in order: first-in-chunk is first-globally.
		m.keyBuf = u.Sig.AppendBinary(m.keyBuf[:0])
		if ws, ok := r.ws[string(m.keyBuf)]; ok {
			m.wsBySig[string(m.keyBuf)] = ws
		}
	}
}

// restore seeds the accumulator with a checkpoint's merged unique set. A
// signature of the wrong width — a checkpoint from another platform's
// register width — is rejected before any state changes or any execution.
func (m *ChunkMerger) restore(uniques []Unique) error {
	words := m.c.SignatureWords()
	for i := range uniques {
		if uniques[i].Sig.Len() != words {
			return fmt.Errorf("mtracecheck: restored signature %d has %d words, campaign signatures have %d",
				i, uniques[i].Sig.Len(), words)
		}
	}
	for _, u := range uniques {
		m.acc.AddUnique(u)
	}
	return nil
}

// Restore seeds the merger from a checkpoint: the merged unique set
// collected before the restart plus the per-chunk stats of the chunks it
// covered. The restored merger continues exactly where the checkpointed one
// stopped — completed chunks are never re-executed.
func (m *ChunkMerger) Restore(uniques []Unique, done map[int]ChunkStats) error {
	if m.nDone > 0 {
		return errors.New("mtracecheck: Restore requires an empty merger")
	}
	for idx, st := range done {
		if idx < 0 || idx >= len(m.done) {
			return fmt.Errorf("mtracecheck: restored chunk %d outside grid of %d", idx, len(m.done))
		}
		if start, count := m.c.ChunkBounds(idx); st.Iterations != count {
			return fmt.Errorf("mtracecheck: restored chunk %d covers %d of %d iterations (grid start %d)",
				idx, st.Iterations, count, start)
		}
	}
	if err := m.restore(uniques); err != nil {
		return err
	}
	for idx, st := range done {
		m.stats[idx] = st
		m.done[idx] = true
		m.nDone++
		m.absorb(&ChunkResult{Stats: st})
	}
	return nil
}

// Report runs the host side over the merged results — corruption injection,
// decode, quarantine gate, collective check — and returns the campaign
// report, bit-identical to an uninterrupted in-process run of the same
// (program, options). It requires every grid chunk to have been absorbed,
// and runs once.
func (m *ChunkMerger) Report(ctx context.Context) (*Report, error) {
	if !m.Complete() {
		return nil, fmt.Errorf("mtracecheck: report requires all %d chunks, have %d", len(m.done), m.nDone)
	}
	for idx := range m.stats {
		for _, a := range m.stats[idx].Asserts {
			m.report.AssertionFailures = append(m.report.AssertionFailures, assertFailure(a))
		}
	}
	return m.finish(ctx, true)
}

// finish is the sort barrier every campaign ends at. The merged set is
// sorted and corrupted (fault injection is a pure function of the final
// set); when check is set it is then decoded and checked. The collective
// check needs this barrier — its windowed re-sorts (Alg. 2) assume
// adjacent signatures are globally sorted. Decode waits here by choice:
// run in parallel once execution has released the CPUs, it costs less
// than decoding on the merge goroutine while the workers still execute.
func (m *ChunkMerger) finish(ctx context.Context, check bool) (*Report, error) {
	c, report := m.c, m.report
	uniques := m.acc.Sorted()
	var injected obs.FaultCounts
	if c.inj != nil {
		uniques, report.InjectedFaults = c.inj.Corrupt(uniques)
		injected = faultCounts(report.InjectedFaults)
	}
	report.UniqueSignatures = len(uniques)
	m.final = uniques
	c.em.mergeDone(report.Iterations, len(uniques), injected, true)
	var err error
	if check {
		err = c.decodeAndCheck(ctx, uniques, m.wsBySig, report)
	}
	c.em.campaignEnd(report, err, m.began)
	return report, err
}

// fail ends a campaign that err cut short before the barrier. The report
// covers every iteration that executed.
func (m *ChunkMerger) fail(err error) (*Report, error) {
	m.report.UniqueSignatures = m.acc.Len()
	m.c.em.campaignEnd(m.report, err, m.began)
	return m.report, err
}
