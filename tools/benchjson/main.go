// Command benchjson converts `go test -bench -benchmem` text output (read
// from stdin) into a machine-readable JSON object mapping benchmark name to
// its metrics:
//
//	{"BenchmarkSimIterationX86": {"ns_op": 786043, "ns_op_min": 771002, "ns_op_max": 802113, "samples": 5, ...}, ...}
//
// The -cpu suffix GOMAXPROCS appends to benchmark names is stripped, so
// successive runs on the same machine key identically. Custom ReportMetric
// units (graphs/op, uniques/op, ...) are carried through under their unit
// name with "/" replaced by "_". A benchmark that appears several times
// (go test -count N) records the median of each metric under the metric's
// name, its spread under <name>_min and <name>_max, and the sample count
// under "samples". It backs `make bench`, which snapshots each run as
// BENCH_<n>.json for regression comparisons.
//
// With -metrics <file>, a Prometheus text-format snapshot (as written by
// `mtracecheck -metrics-out`) is embedded under the "_metrics" key, so each
// BENCH_<n>.json carries the campaign counters — iterations, uniques,
// sorted vertices, stage seconds — that contextualize its timings.
//
// With -diff OLD.json NEW.json, it instead compares two snapshots, printing
// a per-benchmark table of ns/op, B/op, and allocs/op medians. The percent
// change (negative = NEW is better) is printed only when the two min–max
// ranges do not overlap; a change inside the spread prints "~". A snapshot
// without _min/_max entries (one sample per benchmark) counts as a range of
// one point. It backs `make bench-diff`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	metricsFile := flag.String("metrics", "",
		"embed this Prometheus text-format snapshot (see mtracecheck -metrics-out) under the \"_metrics\" key")
	diffMode := flag.Bool("diff", false,
		"compare two BENCH_<n>.json snapshots given as arguments: benchjson -diff OLD.json NEW.json")
	flag.Parse()
	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two arguments: OLD.json NEW.json")
			os.Exit(2)
		}
		if err := diff(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout, *metricsFile); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// diff prints a per-benchmark comparison of two snapshot files. Benchmarks
// present in only one file are listed so renames don't vanish silently; the
// "_metrics" pseudo-entry is skipped (campaign counters are not timings).
func diff(out io.Writer, oldPath, newPath string) error {
	oldRes, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newRes, err := readSnapshot(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		if name != "_metrics" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-34s %-8s %14s %14s %9s\n", "benchmark", "metric", oldPath, newPath, "delta")
	for _, name := range names {
		o := oldRes[name]
		n, ok := newRes[name]
		if !ok {
			fmt.Fprintf(out, "%-34s only in %s\n", name, oldPath)
			continue
		}
		for _, unit := range []string{"ns_op", "B_op", "allocs_op"} {
			ov, oOK := o[unit]
			nv, nOK := n[unit]
			if !oOK || !nOK {
				continue
			}
			oLo, oHi := o.spread(unit)
			nLo, nHi := n.spread(unit)
			delta := "~"
			switch {
			case oHi >= nLo && nHi >= oLo:
				// The ranges overlap: the change is within the noise.
			case ov != 0:
				delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
			default:
				delta = "n/a"
			}
			fmt.Fprintf(out, "%-34s %-8s %14.0f %14.0f %9s\n", name, unit, ov, nv, delta)
		}
	}
	extra := make([]string, 0)
	for name := range newRes {
		if name == "_metrics" {
			continue
		}
		if _, ok := oldRes[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(out, "%-34s only in %s\n", name, newPath)
	}
	return nil
}

func readSnapshot(path string) (map[string]metrics, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res map[string]metrics
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return res, nil
}

type metrics map[string]float64

// spread returns the min–max range recorded for unit, or the single value
// when the snapshot holds one sample.
func (m metrics) spread(unit string) (lo, hi float64) {
	lo, okLo := m[unit+"_min"]
	hi, okHi := m[unit+"_max"]
	if !okLo || !okHi {
		return m[unit], m[unit]
	}
	return lo, hi
}

// summarize folds the samples of one benchmark into its median, min and
// max per metric, plus the sample count.
func summarize(samples []metrics) metrics {
	byUnit := map[string][]float64{}
	for _, m := range samples {
		for unit, v := range m {
			byUnit[unit] = append(byUnit[unit], v)
		}
	}
	out := metrics{"samples": float64(len(samples))}
	for unit, vs := range byUnit {
		sort.Float64s(vs)
		med := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			med = (vs[len(vs)/2-1] + med) / 2
		}
		out[unit] = med
		out[unit+"_min"] = vs[0]
		out[unit+"_max"] = vs[len(vs)-1]
	}
	return out
}

func run(in io.Reader, out io.Writer, metricsFile string) error {
	samples := map[string][]metrics{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // echo so the run stays watchable
		name, m, ok := parseLine(line)
		if ok {
			samples[name] = append(samples[name], m)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	results := map[string]metrics{}
	for name, ms := range samples {
		results[name] = summarize(ms)
	}
	if metricsFile != "" {
		m, err := readPrometheus(metricsFile)
		if err != nil {
			return fmt.Errorf("reading metrics snapshot: %w", err)
		}
		results["_metrics"] = m
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// readPrometheus parses a Prometheus text-exposition file into a flat
// name→value map; labeled series keep their label set in the key (e.g.
// `mtracecheck_quarantined_total{kind="decode"}`).
func readPrometheus(path string) (metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := metrics{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metric value in %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no metric samples", path)
	}
	return m, nil
}

// parseLine parses one benchmark result line, e.g.:
//
//	BenchmarkSimIterationX86-8  1627  786043 ns/op  414420 B/op  6410 allocs/op
//
// returning the -cpu-stripped name and the value of every "<num> <unit>"
// metric pair.
func parseLine(line string) (string, metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false // not an iteration count: a header or status line
	}
	m := metrics{"iterations": mustFloat(fields[1])}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		unit := strings.ReplaceAll(fields[i+1], "/", "_")
		m[unit] = v
	}
	if _, ok := m["ns_op"]; !ok {
		return "", nil, false
	}
	return name, m, true
}

func mustFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}
