package main

// metricDef is one named metric of the benchmark. BENCHMARK.json lists
// the same names, units and directions; bench_test.go keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the stack sees and this box repeats:
// what it does not repeat — wall-clock write latency and throughput, which
// wait for a shared disk, and the tails — is per-layer (README.md, "What
// is gated and what is not"). Every workload reports every one of them
// (the run contract wants one key set): from its own lanes where the
// metric is native to the workload, from a short carried lane where it is
// not (workload.native). Figures are as measured; timings carry the widest
// bound the contract allows because that is what the reference box repeats
// to on a bad day, and what repeats exactly keeps the issue's bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_cpu_s", "1/s", "higher", 0.25},
	{"knn_p50_ms", "ms", "lower", 0.25},
	{"range_p50_ms", "ms", "lower", 0.25},
	{"contains_p50_ms", "ms", "lower", 0.25},
	{"insert_cpu_ms", "ms", "lower", 0.25},
	{"approx_knn_p50_ms", "ms", "lower", 0.25},
	{"approx_recall_at_10", "fraction", "higher", 0.011},
	{"max_rate_under_slo", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"disk_mb", "MB", "lower", 0.02},
}

// perLayer are the metrics of single layers, named layer.metric, measured
// in the traced pass by timing calls into each layer's exported functions
// from outside and reading its public counters. They have no bound. A
// workload whose system has no such layer (no WAL, no shards, no server)
// reports 0 for it.
var perLayer = []metricDef{
	{"bitset.slab_and_ns_per_word", "ns", "lower", 0},
	{"bitset.slab_andnot_ns_per_word", "ns", "lower", 0},
	{"bitset.slab_xor_ns_per_word", "ns", "lower", 0},
	{"bitset.atleast_ns_per_word", "ns", "lower", 0},
	{"bitset.flat_scan_ms", "ms", "lower", 0},
	{"signature.encode_ns", "ns", "lower", 0},
	{"signature.decode_ns_per_sig", "ns", "lower", 0},
	{"storage.pool_hit_rate", "fraction", "higher", 0},
	{"storage.pool_evictions_per_op", "count", "lower", 0},
	{"storage.pager_reads_per_op", "count", "lower", 0},
	{"storage.pool_get_hit_ns", "ns", "lower", 0},
	{"storage.pool_get_miss_us", "us", "lower", 0},
	{"storage.wal_bytes_per_write", "B", "lower", 0},
	{"storage.wal_records_per_write", "count", "lower", 0},
	{"storage.wal_syncs_per_write", "count", "lower", 0},
	{"storage.pager_writes_per_write", "count", "lower", 0},
	{"storage.sync_us", "us", "lower", 0},
	{"storage.acked_insert_p50_ms", "ms", "lower", 0},
	{"storage.acked_insert_p95_ms", "ms", "lower", 0},
	{"storage.recover_s", "s", "lower", 0},
	{"core.nodes_read_per_knn", "count", "lower", 0},
	{"core.data_compared_frac_knn", "fraction", "lower", 0},
	{"core.entries_pruned_per_knn", "count", "higher", 0},
	{"core.nodes_read_per_range", "count", "lower", 0},
	{"core.data_compared_frac_range", "fraction", "lower", 0},
	{"core.nodes_read_per_contains", "count", "lower", 0},
	{"core.node_cache_hit_rate", "fraction", "higher", 0},
	{"core.node_miss_us", "us", "lower", 0},
	{"core.knn_us", "us", "lower", 0},
	{"core.range_us", "us", "lower", 0},
	{"core.contains_us", "us", "lower", 0},
	{"core.kernel_share_est", "fraction", "lower", 0},
	{"core.insert_us", "us", "lower", 0},
	{"core.delete_us", "us", "lower", 0},
	{"core.bulkload_s", "s", "lower", 0},
	{"core.candidate_knn_us", "us", "lower", 0},
	{"sketch.sign_us", "us", "lower", 0},
	{"sketch.candidates_us", "us", "lower", 0},
	{"sketch.candidate_leaves_per_query", "count", "lower", 0},
	{"sketch.build_s", "s", "lower", 0},
	{"sketch.bytes_per_set", "B", "lower", 0},
	{"sketch.rebuild_stall_ms", "ms", "lower", 0},
	{"sgtree.index_self_us", "us", "lower", 0},
	{"sgtree.sharded_self_us", "us", "lower", 0},
	{"sgtree.shard_skew", "ratio", "lower", 0},
	{"sgtree.replica_apply_ms", "ms", "lower", 0},
	{"server.http_self_us", "us", "lower", 0},
	{"server.handler_self_us", "us", "lower", 0},
	{"server.knn_p50_ms.r300", "ms", "lower", 0},
	{"server.knn_p50_ms.r600", "ms", "lower", 0},
	{"server.knn_p50_ms.r1200", "ms", "lower", 0},
	{"server.knn_p50_ms.r5000", "ms", "lower", 0},
	{"server.knn_p99_ms.r300", "ms", "lower", 0},
	{"server.knn_p99_ms.r600", "ms", "lower", 0},
	{"server.knn_p99_ms.r1200", "ms", "lower", 0},
	{"server.knn_p99_ms.r5000", "ms", "lower", 0},
	{"server.insert_cpu_ms", "ms", "lower", 0},
	{"server.insert_p50_ms", "ms", "lower", 0},
	{"server.insert_p90_ms", "ms", "lower", 0},
	{"server.sched_lag_ms_p99", "ms", "lower", 0},
	{"server.repl_lag_lsn_max", "count", "lower", 0},
	{"server.follower_stall_share", "fraction", "lower", 0},
	{"scan.knn_ms_p50", "ms", "lower", 0},
	{"scan.range_ms_p50", "ms", "lower", 0},
	{"lane.ops_per_s_wall", "1/s", "higher", 0},
	{"lane.knn_p95_ms", "ms", "lower", 0},
	{"lane.approx_knn_p95_ms", "ms", "lower", 0},
	{"lane.approx_churn_knn_mean_ms", "ms", "lower", 0},
	{"trace_overhead", "ratio", "higher", 0},
}

// segments is how many equal segments a closed-loop lane's measured ops
// come in, each asking the same questions. Every percentile is taken over
// all the samples of one segment, and the median of the segments' values
// is reported.
const segments = 5

// tail is the quantile of the tail figures, which are shown and per-layer,
// not gated. The issue allows a p99 only where every segment holds ≥ 1,000
// samples of the op (≥ 10 beyond the percentile); durable-churn has 500
// kNN per segment, so it is p95.
const tail = 0.95

// The reads-beside-writes rounds of the approx lanes: one acknowledged
// insert, which invalidates the whole sketch index, then churnQueries
// approx queries, the first of which pays the rebuild. approx-route runs
// them on its own system in both passes, the other workloads on the
// scratch index in the traced pass only; a rebuild of the scratch index is
// a tenth of one of approx-route's own, so it can afford more rounds.
const (
	churnRounds        = 4
	scratchChurnRounds = 13
	churnQueries       = 50
)

// recallQueries is the fixed sample recall@10 is scored on.
const recallQueries = 300

// The scratch index the approx lanes run on in the workloads whose own
// system has no sketch tier (run.go): how many sets it holds, and how many
// read-only approx queries a segment puts to it.
const (
	scratchSets      = 10000
	scratchApproxOps = 10000
)

// writeRate is the service workload's insert stream, per second.
const writeRate = 20

// designatedStep is the open-loop step the service workload's kNN latency
// is read from: the second rate, a sixth of what the follower sustains, so
// that the numbers are service time plus whatever stalls the replication
// underneath imposes, not queueing.
const designatedStep = 1

// laneSpec is one closed-loop stream: the op kinds it cycles through and how
// many ops each of its segments holds.
type laneSpec struct {
	pattern string
	ops     int
	// scratch runs a carried lane on the scratch index (run.go) instead of
	// the workload's own system. The service does that with everything it
	// carries: a closed loop through it, over loopback TCP or straight into
	// the handler, mostly measures how the Go scheduler passes control
	// between the client, the connection and the four shards' goroutines,
	// which settles on one of two levels per run; and the process's CPU
	// time over a stretch of writes that mostly wait for the disk follows
	// the box more than the program (server.insert_cpu_ms, per-layer).
	scratch bool
}

// workload is one named set of inputs and the lanes that drive them. Op
// counts are per segment and fixed (so counters repeat exactly), sized for
// -seconds 10 on the 2-core reference box; -seconds scales them linearly.
type workload struct {
	name, why string
	t, i, d   int // Quest T·I·D
	setup     func(*inputs, string) (*sut, error)
	setupReps int // set-ups per run; the median is reported

	// native are the end-to-end metrics the workload exists to report (the
	// issue's "reported by" column). The run contract wants one key set
	// from every workload, so the others are carried: measured by a short
	// lane beside the workload's own, and not judged by -compare.
	native []string

	// Closed loop, one client. primary is the workload itself (none on the
	// service, whose primary lane is the open loop); the carried lanes
	// issue the exact op kinds the workload's own lanes do not.
	primary laneSpec
	carried []laneSpec
	traced  laneSpec // the closed-loop lane of the traced pass, if not primary

	// Open loop: kNN at four fixed rates for stepSeconds each, from due
	// time; sloMs is the limit on a step's p99. On the service workload
	// (2 connections, an insert stream beside the reads) it is the primary
	// lane; on a library workload it is one caller on a schedule.
	rates       [4]float64
	stepSeconds float64
	sloMs       float64

	// Guards on the primary lane's cache behaviour at full scale: the
	// workload only means what it says while these hold.
	minNodeCacheHit, maxNodeCacheHit, maxPoolHit float64
}

var workloads = []workload{
	{
		name: "mem-fit",
		why:  "whole tree inside the decoded-node cache: time goes to bitset kernels, core traversal and the facade; storage and codec idle",
		t:    8, i: 4, d: 20000,
		setup: setupMemFit, setupReps: 7,
		native:  []string{"setup_s", "ops_per_cpu_s", "knn_p50_ms", "range_p50_ms", "contains_p50_ms", "live_heap_mb"},
		primary: laneSpec{pattern: "KRKC", ops: 12000},
		carried: []laneSpec{{pattern: "I", ops: 1000}},
		rates:   [4]float64{500, 1000, 2000, 16000}, stepSeconds: 0.4, sloMs: 25,
		minNodeCacheHit: 0.99, maxNodeCacheHit: 1, maxPoolHit: 1,
	},
	{
		name: "file-spill",
		why:  "working set far beyond pool and node cache on a cold file: time goes to pool misses, page reads, codec decode and slab rebuild",
		t:    10, i: 6, d: 60000,
		setup: setupFileSpill, setupReps: 5,
		native:  []string{"setup_s", "ops_per_cpu_s", "knn_p50_ms", "range_p50_ms", "contains_p50_ms", "live_heap_mb", "disk_mb"},
		primary: laneSpec{pattern: "KRKC", ops: 640},
		carried: []laneSpec{{pattern: "I", ops: 2000}},
		rates:   [4]float64{6, 12, 25, 400}, stepSeconds: 0.6, sloMs: 100,
		maxNodeCacheHit: 0.6, maxPoolHit: 0.2,
	},
	{
		name: "durable-churn",
		why:  "acknowledged durable writes beside reads: WAL append and fsync per write, splits, COW relocation, snapshot publication",
		t:    8, i: 4, d: 20000,
		setup: setupDurableChurn, setupReps: 5,
		native: []string{"setup_s", "ops_per_cpu_s", "knn_p50_ms", "insert_cpu_ms", "disk_mb"},
		// The issue's mix: 8 Insert+Sync : 2 Delete+Sync : 5 kNN.
		primary: laneSpec{pattern: "IKIIKDIKIIKDIKI", ops: 1500},
		carried: []laneSpec{{pattern: "RC", ops: 8000}},
		rates:   [4]float64{250, 500, 1000, 12000}, stepSeconds: 0.4, sloMs: 25,
		maxNodeCacheHit: 1, maxPoolHit: 1,
	},
	{
		name: "approx-route",
		why:  "sketch tier in front of the tree: MinHash signing and LSH band probes dominate, the tree verifies a few leaves; a write invalidates the whole sketch index",
		t:    8, i: 4, d: 50000,
		setup: setupApproxRoute, setupReps: 3,
		native:  []string{"setup_s", "ops_per_cpu_s", "approx_knn_p50_ms", "approx_recall_at_10", "live_heap_mb"},
		primary: laneSpec{pattern: "A", ops: 1000},
		// One lane per cost class, so that the cheap kinds get the samples
		// a median needs without the exact kNN (2.5 ms here) setting the bill.
		carried: []laneSpec{{pattern: "K", ops: 80}, {pattern: "RC", ops: 400}, {pattern: "I", ops: 1000}},
		rates:   [4]float64{10, 20, 40, 600}, stepSeconds: 0.3, sloMs: 100,
		maxNodeCacheHit: 1, maxPoolHit: 1,
	},
	{
		name: "serve-sharded",
		why:  "the service path: HTTP/JSON, 4-shard scatter-gather, per-request fsync on the primary, follower reads under the replication apply fence",
		t:    8, i: 4, d: 20000,
		setup: setupServeSharded, setupReps: 5,
		native: []string{"setup_s", "ops_per_cpu_s", "knn_p50_ms", "max_rate_under_slo"},
		// Long segments: a segment of a few thousand 5 µs reads is over in
		// 25 ms, and a hiccup of the box covers three of five of those.
		carried: []laneSpec{{pattern: "RC", ops: 40000, scratch: true}, {pattern: "I", ops: 1500, scratch: true}},
		traced:  laneSpec{pattern: "KRC", ops: 450},
		rates:   [4]float64{300, 600, 1200, 5000}, stepSeconds: 2.5, sloMs: 150,
		maxNodeCacheHit: 1, maxPoolHit: 1,
	},
}

// approxNative reports whether the workload's own system has the sketch
// tier, so that the approx lanes are its primary lanes.
func (w workload) approxNative() bool { return w.primary.pattern == "A" }

// isNative reports whether the workload reports the metric natively.
func (w workload) isNative(metric string) bool {
	for _, n := range w.native {
		if n == metric {
			return true
		}
	}
	return false
}

// tiny is the workload at the smoke test's size: a small dataset and one
// set-up (options.scale shrinks the op counts).
func (w workload) tiny() workload {
	w.d, w.setupReps = 1500, 1
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
