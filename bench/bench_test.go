package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The contract file and spec.go must name the same workloads and metrics
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, spec.go {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %q (%s): bad or repeated name or unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in spec.go (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// lastLine is the object the driver reads.
type lastLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runBench(t *testing.T, args ...string) (int, lastLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	args = append(args, "-scratch", filepath.Join(dir, "scratch"), "-out", filepath.Join(dir, "out"))
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	if raw := lines[len(lines)-1]; strings.HasPrefix(raw, "{") {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("last stdout line is not the result object: %v\n%s", err, raw)
		}
	}
	return code, last, stderr.String()
}

// Every workload, in both passes, at the smoke-test size: each run must
// succeed with zero failed ops and emit exactly the metrics BENCHMARK.json
// names for that pass, all finite.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for trace, want := range [][]jsonMetric{b.EndToEnd, b.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				code, last, stderr := runBench(t, "-workload", w.name, "-scale", "tiny", "-seed", "3", "-trace", fmt.Sprint(trace))
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr)
				}
				if last.Correct == nil || !*last.Correct || last.Failed == nil || *last.Failed != 0 || last.Attempted == nil || *last.Attempted < 1 {
					t.Fatalf("result line: correct=%v attempted=%v failed=%v", last.Correct, last.Attempted, last.Failed)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Value < 0 && !strings.Contains(m.Name, "_self_"):
						// A self time is a difference of two measured spans and
						// may dip below zero on samples this small; nothing else may.
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case trace == 0 && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			})
		}
	}
}

// A deliberately wrong oracle expectation must fail the run.
func TestBreakOracleFailsTheRun(t *testing.T) {
	code, last, _ := runBench(t, "-workload", "mem-fit", "-scale", "tiny", "-break-oracle")
	if code == 0 {
		t.Error("exit code 0 with a broken oracle")
	}
	if last.Correct == nil || *last.Correct || last.Failed == nil || *last.Failed == 0 {
		t.Errorf("result line: correct=%v failed=%v, want false and > 0", last.Correct, last.Failed)
	}
}

func TestRefusesFallbackKernels(t *testing.T) {
	t.Setenv("SGTREE_NO_ASM", "1")
	if code, _, stderr := runBench(t, "-workload", "mem-fit", "-scale", "tiny"); code != 2 || !strings.Contains(stderr, "SGTREE_NO_ASM") {
		t.Errorf("exit code %d, stderr %q: want a refusal naming the variable", code, stderr)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{name: "x_ms", unit: "ms", better: "lower", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", steady, steady, def, "ok"},
		{"within bound", steady, shifted(1.05), def, "ok"},
		{"worse", steady, shifted(1.2), def, "worse"},
		{"better is not worse", steady, shifted(0.5), def, "ok"},
		{"too noisy to tell", steady, noisy, def, "unresolved"},
		{"higher is better", steady, shifted(0.8), metricDef{name: "x", better: "higher", bound: 0.10}, "worse"},
		{"no share of a zero baseline", []float64{0, 0, 0}, steady, def, "unresolved"},
	} {
		if _, got := verdictOf(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// writeRuns writes a runs.jsonl holding n end-to-end mem-fit runs in which
// every metric reads 1, except those in vals; edit may change a run.
func writeRuns(t *testing.T, n int, vals map[string]float64, edit func(i int, r *result)) string {
	t.Helper()
	w, _ := findWorkload("mem-fit")
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		r := newResult(w, options{seed: int64(i), seconds: 10}, 0)
		r.Status, r.Correct, r.Attempted = "ok", true, 1
		for _, d := range endToEnd {
			v, ok := vals[d.name]
			if !ok {
				v = 1
			}
			r.set(endToEnd, d.name, v)
		}
		if edit != nil {
			edit(i, r)
		}
		if err := appendRun(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "runs.jsonl")
}

// -compare judges a workload by the metrics it reports natively, shows the
// carried ones without counting them, and refuses runs that are not a fair
// sample: failed ops, an unverified box, another environment.
func TestCompareCountsNativeCellsAndFairRunsOnly(t *testing.T) {
	base := writeRuns(t, 3, nil, nil)
	for _, tc := range []struct {
		name   string
		other  string
		code   int
		stdout string
		stderr string
	}{
		{"same", writeRuns(t, 3, nil, nil), 0, "", ""},
		{"native metric worse", writeRuns(t, 3, map[string]float64{"knn_p50_ms": 2}, nil), 1, "worse", ""},
		{"carried metric worse", writeRuns(t, 3, map[string]float64{"insert_cpu_ms": 2}, nil), 0, "(carried: worse)", ""},
		{"failed ops", writeRuns(t, 3, nil, func(i int, r *result) { r.Failed, r.Correct = i, i == 0 }), 1, "", "failed ops"},
		{"unverified", writeRuns(t, 3, nil, func(_ int, r *result) { r.Status = "unverified" }), 1, "", "unverified"},
		{"other kernels", writeRuns(t, 3, nil, func(_ int, r *result) { r.Env.BitsetKernels = "generic" }), 1, "", "different environments"},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(base, tc.other, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: want %q on stdout and %q on stderr, got\n%s%s", tc.name, tc.stdout, tc.stderr, stdout.String(), stderr.String())
		}
	}
}
