// Command bench is the layered benchmark of the SG-tree stack: five named
// workloads driven through the public entry points of each module, every
// answer checked against the internal/scan oracle, end-to-end metrics in
// one pass and per-layer metrics, measured from outside, in a second
// traced pass. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"sgtree/internal/bitset"
	"sgtree/internal/sketch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Int64("seed", 14, "seed of every generated input")
		seconds  = fs.Float64("seconds", 10, "measured time the op counts are scaled to")
		trace    = fs.Int("trace", 0, "0: end-to-end pass; 1: traced per-layer pass")
		scale    = fs.String("scale", "full", "full, or tiny for the smoke test")
		out      = fs.String("out", "", "directory for runs.jsonl and span dumps (default: a directory under -scratch)")
		scratch  = fs.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for page files, logs and replica stores")
		fallback = fs.Bool("allow-fallback", false, "run even though SGTREE_NO_ASM or SGTREE_SKETCH_SCALAR selects a fallback kernel family")
		compare  = fs.Bool("compare", false, "compare two runs.jsonl files given as arguments and exit")
		breakOr  = fs.Bool("break-oracle", false, "test only: expect wrong kNN distances, so the correctness gate must fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two runs.jsonl files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "tiny") {
		fmt.Fprintln(stderr, "bench: need -seconds > 0, -trace 0|1, -scale full|tiny")
		return 2
	}
	for _, v := range []string{"SGTREE_NO_ASM", "SGTREE_SKETCH_SCALAR"} {
		if os.Getenv(v) != "" && !*fallback {
			fmt.Fprintf(stderr, "bench: %s is set: refusing to measure a fallback kernel family (pass -allow-fallback to do it anyway)\n", v)
			return 2
		}
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	dir, err := scratchDir(*scratch)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := options{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", scratch: dir, out: *out, breakOracle: *breakOr}
	if o.out == "" {
		o.out = filepath.Join(*scratch, "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	code := 0
	for _, w := range todo {
		if o.tiny {
			w = w.tiny()
		}
		var res *result
		if *trace == 1 {
			res, err = runTraced(w, o)
		} else {
			res, err = runEndToEnd(w, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := appendRun(o.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res)
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed; first: %s\n", w.name, res.Failed, res.Attempted, res.Failure)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult writes the metrics by name with their units, then — as the
// last line — the one-line JSON object the driver reads.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "# %s  trace=%d seed=%d seconds=%g scale=%s status=%s kernels=%s/%s\n",
		res.Workload, res.Trace, res.Seed, res.Seconds, res.Scale, res.Status, res.Env.BitsetKernels, res.Env.SketchKernels)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if wall, ok := res.Detail["wall"].(map[string]float64); ok {
		fmt.Fprint(w, "not gated:")
		for _, name := range []string{"ops_per_s", "insert_p50_ms", "insert_p95_ms", "knn_p95_ms", "approx_knn_p95_ms", "approx_churn_knn_mean_ms"} {
			if v, ok := wall[name]; ok {
				fmt.Fprintf(w, " %s %.6g", name, v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// appendRun adds the full result, env block included, to <out>/runs.jsonl:
// the file -compare reads.
func appendRun(out string, res *result) error {
	f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envInfo says where and with what a result was produced; two results are
// comparable only when these agree.
type envInfo struct {
	NumCPU        int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GitRevision   string `json:"git_revision"`
	CPUModel      string `json:"cpu_model"`
	Seed          int64  `json:"seed"`
	BitsetKernels string `json:"bitset_kernels"` // assembly or generic Go
	SketchKernels string `json:"sketch_kernels"`
}

func captureEnv(seed int64) envInfo {
	return envInfo{
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GitRevision:   gitRevision(),
		CPUModel:      cpuModel(),
		Seed:          seed,
		BitsetKernels: bitset.Kernels(),
		SketchKernels: sketch.ActiveKernel(),
	}
}

// gitRevision is `git rev-parse HEAD` as the go command stamped it into
// the binary; a build outside a repository (the driver's checkout) has no
// stamp and reports "unknown".
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
