package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSummarizesSamples: repeated result lines for one benchmark (go test
// -count N) fold into the median, min and max of each metric.
func TestRunSummarizesSamples(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkSim-2   10   300 ns/op   40 B/op   0 allocs/op",
		"BenchmarkSim-2   10   100 ns/op   40 B/op   0 allocs/op",
		"BenchmarkSim-2   10   200 ns/op   40 B/op   0 allocs/op",
		"BenchmarkOnce-2   5   7 ns/op",
		"PASS",
	}, "\n")
	var out bytes.Buffer
	if err := run(strings.NewReader(in), &out, ""); err != nil {
		t.Fatal(err)
	}
	var res map[string]metrics
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	sim := res["BenchmarkSim"]
	for key, want := range map[string]float64{
		"samples": 3, "ns_op": 200, "ns_op_min": 100, "ns_op_max": 300, "B_op": 40, "B_op_min": 40,
	} {
		if sim[key] != want {
			t.Errorf("BenchmarkSim %s = %v, want %v", key, sim[key], want)
		}
	}
	if once := res["BenchmarkOnce"]; once["samples"] != 1 || once["ns_op"] != 7 || once["ns_op_max"] != 7 {
		t.Errorf("BenchmarkOnce = %v, want one sample of 7 ns/op", once)
	}
}

func writeSnapshot(t *testing.T, dir, name string, res map[string]metrics) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// diffRow returns the delta column of the row for benchmark name and unit.
func diffRow(t *testing.T, table, name, unit string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == name && f[1] == unit {
			return f[4]
		}
	}
	t.Fatalf("no %s %s row in:\n%s", name, unit, table)
	return ""
}

// TestDiffFlagsOnlyChangesOutsideSpread: a delta prints only when the two
// min–max ranges are disjoint, and a single-sample snapshot (the older
// BENCH_<n>.json shape) is a one-point range.
func TestDiffFlagsOnlyChangesOutsideSpread(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", map[string]metrics{
		"BenchmarkNoisy":   {"ns_op": 100, "ns_op_min": 90, "ns_op_max": 120, "samples": 5},
		"BenchmarkFaster":  {"ns_op": 100, "ns_op_min": 95, "ns_op_max": 105, "samples": 5},
		"BenchmarkSingle":  {"ns_op": 100, "allocs_op": 3},
		"_metrics":         {"mtracecheck_iterations_total": 2048},
		"BenchmarkRemoved": {"ns_op": 1},
	})
	cur := writeSnapshot(t, dir, "new.json", map[string]metrics{
		"BenchmarkNoisy":  {"ns_op": 110, "ns_op_min": 115, "ns_op_max": 130, "samples": 5},
		"BenchmarkFaster": {"ns_op": 80, "ns_op_min": 75, "ns_op_max": 85, "samples": 5},
		"BenchmarkSingle": {"ns_op": 100, "ns_op_min": 98, "ns_op_max": 104, "allocs_op": 2, "allocs_op_min": 2, "allocs_op_max": 2},
	})
	var out bytes.Buffer
	if err := diff(&out, old, cur); err != nil {
		t.Fatal(err)
	}
	table := out.String()
	for _, c := range []struct{ name, unit, want string }{
		{"BenchmarkNoisy", "ns_op", "~"},
		{"BenchmarkFaster", "ns_op", "-20.0%"},
		{"BenchmarkSingle", "ns_op", "~"},
		{"BenchmarkSingle", "allocs_op", "-33.3%"},
	} {
		if got := diffRow(t, table, c.name, c.unit); got != c.want {
			t.Errorf("%s %s delta %q, want %q", c.name, c.unit, got, c.want)
		}
	}
	if !strings.Contains(table, "BenchmarkRemoved") || strings.Contains(table, "_metrics") {
		t.Errorf("diff must list removed benchmarks and skip _metrics:\n%s", table)
	}
}

// TestDiffReadsCommittedSnapshots: the committed single-sample snapshots
// still compare.
func TestDiffReadsCommittedSnapshots(t *testing.T) {
	var out bytes.Buffer
	if err := diff(&out, "../../BENCH_0.json", "../../BENCH_4.json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkSimIterationX86") {
		t.Errorf("diff of BENCH_0 and BENCH_4 lacks BenchmarkSimIterationX86:\n%s", out.String())
	}
}
