package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	mtc "mtracecheck"
)

// workload is one named benchmark input: a constrained-random test program
// generated from the workload seed, the platform it runs on, and the
// campaign length. README.md records why each workload was chosen.
type workload struct {
	name     string
	cfg      mtc.TestConfig
	platform func() mtc.Platform
	// iterations is the campaign length. For an offline workload it is the
	// length of the campaign that produced the stored signature set.
	iterations int
	// offline workloads time host-side checking of a stored signature set
	// (the CLI's -sigs-in path) instead of a full campaign.
	offline bool
	// buggy workloads run on a bug-injected platform and must report at
	// least one violation; every other workload must report none.
	buggy bool
}

var workloads = []workload{
	{
		name:       "campaign-x86",
		cfg:        mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 64},
		platform:   mtc.PlatformX86,
		iterations: 2048,
	},
	{
		name:       "campaign-arm",
		cfg:        mtc.TestConfig{Label: "ARM-7-100-128", Threads: 7, OpsPerThread: 100, Words: 128},
		platform:   mtc.PlatformARM,
		iterations: 2048,
	},
	{
		name:       "check-gem5bug",
		cfg:        mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4},
		platform:   func() mtc.Platform { return mtc.BuggyPlatform(mtc.BugSMInv) },
		iterations: 4096,
		offline:    true,
		buggy:      true,
	},
}

func workloadNamed(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// programSeed generates every workload's test program. The workload seed
// drives the campaign seed stream, not the program: unique interleavings
// per iteration differ up to 5x between generated programs (0.08 to 0.39
// on campaign-x86 over program seeds 1-7), so a seed-dependent program
// would make every figure move with the seed rather than with the code.
const programSeed = 1

func (w workload) program() (*mtc.Program, error) {
	cfg := w.cfg
	cfg.Seed = programSeed
	return mtc.NewProgramBuilderFromConfig(cfg)
}

func (w workload) options(seed int64, workers int) mtc.Options {
	return mtc.Options{
		Platform:   w.platform(),
		Iterations: w.iterations,
		Seed:       seed,
		Workers:    workers,
		Checker:    mtc.CheckerCollective,
	}
}

// inputPath is where an offline workload's signature set for seed is
// cached. The name carries the program fingerprint, so a changed program
// never picks up a set collected from the old one.
func (w workload) inputPath(cacheDir string, p *mtc.Program, seed int64) string {
	return filepath.Join(cacheDir, fmt.Sprintf("%s-%016x-seed%d.sig", w.name, mtc.ProgramHash(p), seed))
}

// prepared is everything a user has paid for before the timed work starts:
// the program, the analyzed campaign and, offline, the validated input.
type prepared struct {
	prog    *mtc.Program
	opts    mtc.Options
	camp    *mtc.Campaign
	uniques []mtc.Unique // offline input, ascending
	// inputIters is the iteration count the offline input covers.
	inputIters int
}

// setup builds the program and campaign and, for an offline workload, reads
// and validates the stored signature set. It is the work setup_s times.
func (w workload) setup(seed int64, workers int, input string) (*prepared, error) {
	p, err := w.program()
	if err != nil {
		return nil, err
	}
	opts := w.options(seed, workers)
	c, err := mtc.NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	pr := &prepared{prog: p, opts: opts, camp: c}
	if w.offline {
		if pr.uniques, err = loadInput(input, p, opts); err != nil {
			return nil, err
		}
		for _, u := range pr.uniques {
			pr.inputIters += u.Count
		}
		if pr.inputIters != w.iterations {
			return nil, fmt.Errorf("%s: covers %d iterations, want %d", input, pr.inputIters, w.iterations)
		}
	}
	return pr, nil
}

// withWorkers returns the same set-up with a campaign of another worker
// count.
func (pr *prepared) withWorkers(workers int) (*prepared, error) {
	opts := pr.opts
	opts.Workers = workers
	c, err := mtc.NewCampaign(pr.prog, opts)
	if err != nil {
		return nil, err
	}
	out := *pr
	out.opts, out.camp = opts, c
	return &out, nil
}

// ops is the number of operations one timed run attempts: iterations for
// a campaign, unique signatures for an offline check.
func (pr *prepared) ops() int {
	if pr.uniques != nil {
		return len(pr.uniques)
	}
	return pr.opts.Iterations
}

// run executes the workload's timed operation once: a full campaign, or
// host-side checking of the stored set (CheckSignatures' campaign path).
func (pr *prepared) run(ctx context.Context) (*mtc.Report, error) {
	if pr.uniques != nil {
		return pr.camp.Check(ctx, pr.uniques)
	}
	return pr.camp.Run(ctx)
}

// loadInput reads a stored signature set and checks its provenance header
// against the campaign about to check it.
func loadInput(path string, p *mtc.Program, opts mtc.Options) ([]mtc.Unique, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	uniques, meta, err := mtc.LoadSignaturesMeta(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if meta == nil {
		return nil, fmt.Errorf("%s: no provenance header", path)
	}
	if err := mtc.ValidateSignatureMeta(meta, p, opts); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return uniques, nil
}

// ensureInput returns the path of an offline workload's cached signature
// set for seed, generating it first if needed; a campaign workload has no
// input. Generation runs in a child process (this binary with -generate),
// so it lands in no timed region and leaves no trace in the measuring
// process's memory high-water mark.
func (w workload) ensureInput(cacheDir string, seed int64) (string, error) {
	if !w.offline {
		return "", nil
	}
	p, err := w.program()
	if err != nil {
		return "", err
	}
	path := w.inputPath(cacheDir, p, seed)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-generate", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-cache", cacheDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generating %s: %w", path, err)
	}
	return path, nil
}

// writeInput runs the device side of an offline workload — the campaign
// that produces the signature set the host later checks — and caches the
// set with its provenance header.
func (w workload) writeInput(cacheDir string, seed int64) error {
	p, err := w.program()
	if err != nil {
		return err
	}
	uniques, err := mtc.CollectSignatures(p, w.options(seed, runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	// Write to a temporary name and rename, so an interrupted run never
	// leaves a truncated set behind for the next one.
	tmp, err := os.CreateTemp(cacheDir, ".input-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	report := &mtc.Report{Program: p, Seed: seed, Platform: w.platform().Name}
	if err := mtc.SaveSignatures(tmp, report, uniques); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), w.inputPath(cacheDir, p, seed))
}

// outcome is the part of a report that is a pure function of the workload
// and seed: identical across repetitions and worker counts.
type outcome struct {
	iterations  int
	uniques     int
	violations  int
	asserts     int
	quarantined int
	lost        int // iterations lost to execution shards that never completed
	cycles      int64
	squashes    int
	// verdicts lists every violation's position and signature.
	verdicts string
}

func outcomeOf(r *mtc.Report) outcome {
	o := outcome{
		iterations:  r.Iterations,
		uniques:     r.UniqueSignatures,
		violations:  len(r.Violations),
		asserts:     len(r.AssertionFailures),
		quarantined: len(r.Quarantined),
		cycles:      r.TotalCycles,
		squashes:    r.Squashes,
		verdicts:    verdicts(r.Violations),
	}
	for _, f := range r.ShardFailures {
		o.lost += f.Count - f.Executed
	}
	return o
}

func verdicts(vs []mtc.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%d:%s;", v.Index, v.Sig)
	}
	return b.String()
}

// verify applies the output checks every repetition must pass. Assertion
// failures, quarantined signatures and lost iterations are failed
// operations, and any of them fails the run.
func (w workload) verify(o outcome) error {
	switch {
	case o.asserts+o.lost+o.quarantined > 0:
		return fmt.Errorf("%d assertion failures, %d quarantined signatures, %d lost iterations",
			o.asserts, o.quarantined, o.lost)
	case w.buggy && o.violations == 0:
		return errors.New("bug-injected platform produced no violation")
	case !w.buggy && o.violations > 0:
		return fmt.Errorf("clean platform produced %d violations", o.violations)
	}
	return nil
}
