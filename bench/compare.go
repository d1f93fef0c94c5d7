package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is one runs.jsonl file: the end-to-end values by workload and
// metric, in run order, and what stands against comparing them.
type runSet struct {
	values map[string]map[string][]float64
	env    envInfo  // of the first run
	flaws  []string // runs that are not a fair sample: failed ops, unverified box, mixed environments
}

// comparable says whether two environments can produce comparable
// timings. The git revision is left out: comparing two revisions is what
// the tool is for. So is the seed: the driver varies it on purpose.
func (e envInfo) comparable(o envInfo) bool {
	e.GitRevision, o.GitRevision = "", ""
	e.Seed, o.Seed = 0, 0
	return e == o
}

func loadRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	n := 0
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if n == 0 {
			set.env = r.Env
		}
		n++
		switch {
		case !r.Correct || r.Failed > 0:
			set.flaws = append(set.flaws, fmt.Sprintf("%s:%d: %s run with %d failed ops", path, line, r.Workload, r.Failed))
		case r.Status != "ok":
			set.flaws = append(set.flaws, fmt.Sprintf("%s:%d: %s run is %s", path, line, r.Workload, r.Status))
		case !r.Env.comparable(set.env):
			set.flaws = append(set.flaws, fmt.Sprintf("%s:%d: %s run comes from another environment than the file's first", path, line, r.Workload))
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end runs", path)
	}
	return set, nil
}

// spread is the interquartile range as a share of the median: how far
// apart a side's own runs are.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / med
}

// verdictOf judges b against a for one metric: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either side's
// own spread exceeds the bound (a difference of that size cannot be told
// from noise) or a's median is 0 (there is no share to take), "ok"
// otherwise.
func verdictOf(def metricDef, a, b []float64) (rel float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	rel = (mb - ma) / ma
	worsening := rel
	if def.better == "higher" {
		worsening = -rel
	}
	switch {
	case spread(a) > def.bound || spread(b) > def.bound:
		return rel, "unresolved"
	case worsening > def.bound:
		return rel, "worse"
	}
	return rel, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference, the bound and the verdict. A metric the
// workload only carries is printed with its verdict in brackets and does
// not count. It exits non-zero unless every counted verdict is ok and both
// files are fair samples of one environment.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	flaws := append(append([]string(nil), a.flaws...), b.flaws...)
	if !a.env.comparable(b.env) {
		flaws = append(flaws, fmt.Sprintf("the two files come from different environments:\n  %+v\n  %+v", a.env, b.env))
	}
	for _, flaw := range flaws {
		fmt.Fprintln(stderr, "bench: not comparable:", flaw)
		code = 1
	}
	fmt.Fprintf(stdout, "%-14s %-26s %12s %12s %8s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "iqr_a", "iqr_b", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values[w.name][def.name], b.values[w.name][def.name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-26s missing on one side\n", w.name, def.name)
				code = 1
				continue
			}
			rel, verdict := verdictOf(def, va, vb)
			if !w.isNative(def.name) {
				verdict = "(carried: " + verdict + ")"
			} else if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-26s %12.6g %12.6g %+7.1f%% %7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.name, def.name, median(va), median(vb), 100*rel, 100*def.bound, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	return code
}
