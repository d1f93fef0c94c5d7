package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// options are the knobs of one run.
type options struct {
	seed        int64
	seconds     float64
	tiny        bool   // -scale tiny: the smoke-test size
	scratch     string // directory for page files, logs and replica stores
	out         string // directory for the run log and span dumps
	breakOracle bool
}

// scale returns an op count scaled from the reference -seconds 10, and
// shrunk again for the smoke test; never below min.
func (o options) scale(n, min int) int {
	f := o.seconds / 10
	if o.tiny {
		f /= 80
	}
	if v := int(math.Round(float64(n) * f)); v > min {
		return v
	}
	return min
}

// sample shrinks a fixed sample for the smoke test.
func (o options) sample(n int) int {
	if o.tiny {
		return n/10 + 2
	}
	return n
}

// checks is the size of the oracle sample per op type.
func (o options) checks() int {
	if o.tiny {
		return 25
	}
	return 200
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     string                 `json:"scale"`
	Status    string                 `json:"status"` // "ok", or "unverified" on fewer than 2 CPUs
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failure   string                 `json:"first_failure,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]any         `json:"detail,omitempty"`
	Claim     *string                `json:"claim"` // this benchmark claims no gain: always null
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("metric not declared in spec.go: " + name)
}

func (r *result) count(attempted, failed int, firstFail string) {
	r.Attempted += attempted
	r.Failed += failed
	if r.Failure == "" {
		r.Failure = firstFail
	}
}

func (r *result) countLane(l laneResult) { r.count(l.ops, l.failed, l.firstFail) }

// heapMB forces a collection and returns the live heap: the lowest of four
// readings 100 ms apart, so that a buffer the service's replication poll
// happens to hold at that instant, or a goroutine of a system just taken
// down that has not yet returned, is not counted as live.
func heapMB() float64 {
	low := math.Inf(1)
	for i := 0; i < 4; i++ {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		runtime.GC()
		runtime.GC() // the second pass drops what sync.Pools held through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		low = math.Min(low, float64(m.HeapAlloc)/(1<<20))
	}
	return low
}

// build generates the workload's inputs and sets its system up, reps times
// in fresh directories, and keeps the last. It returns the median time of
// the two steps together and the live heap between them in the set-up it
// kept, which is what the benchmark's own data occupies.
func build(w workload, o options, reps int) (s *sut, in *inputs, heapBefore, seconds float64, err error) {
	nInserts := 40000
	if o.tiny {
		nInserts = 2000
	}
	var times []float64
	for rep := 0; ; rep++ {
		dir, err := os.MkdirTemp(o.scratch, w.name+"-")
		if err != nil {
			return nil, nil, 0, 0, err
		}
		settle()
		start := time.Now()
		in, err = makeInputs(w.t, w.i, w.d, o.seed, 4096, nInserts, o.checks())
		if err != nil {
			return nil, nil, 0, 0, err
		}
		took := time.Since(start)
		if rep == reps-1 {
			heapBefore = heapMB()
		}
		start = time.Now()
		s, err = w.setup(in, dir)
		took += time.Since(start)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
		if rep == reps-1 {
			return s, in, heapBefore, median(times), nil
		}
		if err := s.close(); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("tear-down: %w", err)
		}
	}
}

// openLane runs the workload's four rate steps and returns them. On the
// service workload an insert stream runs beside them on a connection of its
// own; its result is the second value.
func openLane(w workload, s *sut, m *model, o options) ([]stepResult, stepResult) {
	dur := time.Duration(w.stepSeconds * o.seconds / 10 * float64(time.Second))
	if o.tiny {
		dur = 100 * time.Millisecond
	}
	conns := 1
	if s.pair != nil {
		conns = 2
	}
	rng := rand.New(rand.NewSource(o.seed*1000 + 6))
	in := m.in
	next := 0 // position in the query population

	// The insert stream runs through all four steps so that the traffic
	// mix stays the same, but its percentiles are taken over the inserts
	// due during the first two: the last step is there to saturate the
	// system and the third loads it past half, and what a write costs while
	// it waits for a CPU is not a latency anyone plans for.
	var writes stepResult
	var wg sync.WaitGroup
	if s.pair != nil {
		total := time.Duration(len(w.rates)) * dur
		due := arrivalSchedule(rng, writeRate, total)
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = runOpenStep(due, total, 1, math.Inf(1), func(int) error {
				id, tx, err := m.nextInsert()
				if err == nil {
					err = s.t.Insert(id, tx)
				}
				if err == nil {
					m.extra[id] = true
				}
				return err
			})
			writes.byRequest = writes.byRequest[:sort.Search(len(due), func(i int) bool { return due[i] >= 2*dur })]
		}()
	}
	steps := make([]stepResult, len(w.rates))
	for i, rate := range w.rates {
		due := arrivalSchedule(rng, rate, dur)
		base := next
		steps[i] = runOpenStep(due, dur, conns, w.sloMs, func(j int) error {
			res, _, err := s.t.KNN(in.queries[(base+j)%len(in.queries)], knnK)
			if err == nil && len(res) != knnK {
				err = fmt.Errorf("knn returned %d matches, want %d", len(res), knnK)
			}
			return err
		})
		steps[i].Rate = rate
		next += len(due)
	}
	wg.Wait()
	return steps, writes
}

// approxResult is what the approx lanes measured.
type approxResult struct {
	readOnly laneResult // phase A: approx queries alone
	churn    laneResult // phase B: each segment is one round of insert, then queries
	recall   float64
	gate     verdict
}

// approxLanes drives the sketch tier of l's target: the read-only phase,
// rounds reads-beside-writes rounds (none if 0), and the recall sample.
func approxLanes(l lane, m *model, ops, rounds int, o options) approxResult {
	if o.tiny && rounds > 2 {
		rounds = 2
	}
	var r approxResult
	r.readOnly = l.run(m.in, "A", o.scale(ops, 20), segments, true)
	queries := churnQueries // whatever the run length: the mean over a round depends on it
	if o.tiny {
		queries = 5
	}
	r.churn = l.run(m.in, churnPattern(queries), 1+queries, rounds, false) // a warm-up would only pay one more rebuild
	r.recall, r.gate = recallAt10(l.t, m, o.sample(recallQueries))
	return r
}

// carriedApprox runs, on the scratch index, the approx lanes for a workload
// whose own system has no sketch tier, after the closed-loop lanes the
// workload carries there.
func carriedApprox(in *inputs, tr *tracer, o options, rounds int, also []laneSpec) (approxResult, []laneResult, error) {
	sub, ix, err := newScratchApprox(in)
	if err != nil {
		return approxResult{}, nil, fmt.Errorf("scratch approx index: %w", err)
	}
	l := lane{t: libTarget{ix, context.Background()}, tr: tr}
	var lanes []laneResult
	for _, c := range also {
		lanes = append(lanes, l.run(sub, c.pattern, o.scale(c.ops, len(c.pattern)), segments, true))
	}
	r := approxLanes(l, newModel(sub), scratchApproxOps, rounds, o)
	return r, lanes, ix.Close()
}

// runEndToEnd is the untraced pass: it builds the system, drives the
// workload's lanes, checks answers against the oracle and reports every
// end-to-end metric.
func runEndToEnd(w workload, o options) (res *result, err error) {
	res = newResult(w, o, 0)
	s, in, heapBefore, setupSeconds, err := build(w, o, w.setupReps)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res.set(endToEnd, "setup_s", setupSeconds)

	m := newModel(in)
	l := lane{t: s.t}
	laneSeconds := map[string]float64{}
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		laneSeconds[name] = time.Since(start).Seconds()
	}
	var steps []stepResult
	var writes stepResult
	var openCPU time.Duration // of the whole process over the four steps
	runOpen := func() error {
		before := processCPU()
		timed("open", func() { steps, writes = openLane(w, s, m, o) })
		openCPU = processCPU() - before
		for _, st := range append(steps, writes) {
			res.count(st.Sent, st.Failed, st.firstFail)
		}
		if s.pair == nil {
			return nil
		}
		return s.pair.waitCaughtUp(m.len())
	}

	// The workload's own lanes: the open loop on the service, the approx
	// lanes where the system has a sketch tier, the primary closed loop
	// elsewhere. The cache guards, the live heap and the disk footprint are
	// read when they end, before any carried lane runs.
	var prim laneResult
	var ap approxResult
	before := cacheCounters(s)
	switch {
	case s.pair != nil:
		if err := runOpen(); err != nil {
			return nil, err
		}
	case w.approxNative():
		timed("approx", func() { ap = approxLanes(l, m, w.primary.ops, churnRounds, o) })
		prim = ap.readOnly
	default:
		timed("primary", func() {
			prim = l.run(in, w.primary.pattern, o.scale(w.primary.ops, len(w.primary.pattern)), segments, true)
		})
	}
	guards := cacheCounters(s).since(before)
	if s.pair != nil {
		// Whether the follower's last replication apply, which empties its
		// decoded-node caches, fell before or after the last reads is the
		// schedule's doing; a fixed batch of reads after the catch-up puts
		// the caches, and with them the live heap, in one state.
		var warm laneResult
		l.play(&warm, (&scripter{in: in, pattern: "K"}).segment(o.scale(1000, 20)), nil, nil)
		res.countLane(warm)
	}
	res.set(endToEnd, "live_heap_mb", heapMB()-heapBefore)
	disk, err := s.diskBytes()
	if err != nil {
		return nil, err
	}
	res.set(endToEnd, "disk_mb", float64(disk)/(1<<20))

	// The carried lanes: the op kinds, the sketch tier and the arrival
	// schedule the workload's own lanes did not use.
	var car []laneResult
	var onScratch []laneSpec
	timed("carried", func() {
		for _, c := range w.carried {
			if c.scratch {
				onScratch = append(onScratch, c)
				continue
			}
			car = append(car, l.run(in, c.pattern, o.scale(c.ops, len(c.pattern)), segments, true))
		}
	})
	if !w.approxNative() {
		var scratchLanes []laneResult
		// No reads-beside-writes rounds here: what they measure, the
		// re-sketch stall, is gated nowhere and shown by approx-route.
		timed("approx", func() { ap, scratchLanes, err = carriedApprox(in, nil, o, 0, onScratch) })
		if err != nil {
			return nil, err
		}
		car = append(car, scratchLanes...)
	}
	if s.pair == nil {
		if err := runOpen(); err != nil {
			return nil, err
		}
	} else if err := s.pair.waitCaughtUp(m.len()); err != nil {
		return nil, err
	}
	for _, r := range append([]laneResult{prim, ap.churn}, car...) {
		res.countLane(r)
	}
	if !w.approxNative() {
		res.countLane(ap.readOnly)
	}
	res.count(ap.gate.attempted, ap.gate.failed, ap.gate.firstFailure)

	// Correctness gate over the final contents.
	var v verdict
	timed("verify", func() { v = verify(s.t, m, o.checks(), w.approxNative(), o.breakOracle) })
	res.count(v.attempted, v.failed, v.firstFailure)
	if s.pair != nil { // the primary must hold the same contents as the follower
		onPrimary := s.t.(httpTarget)
		onPrimary.readURL = onPrimary.writeURL
		pv := verify(onPrimary, m, o.checks(), false, o.breakOracle)
		res.count(pv.attempted, pv.failed, pv.firstFailure)
	}
	if s.ix != nil && s.ix.Len() != m.len() {
		res.count(1, 1, fmt.Sprintf("index holds %d sets, model %d", s.ix.Len(), m.len()))
	}

	// A closed-loop figure is taken per segment — a percentile over every
	// sample of the segment, or the segment's ops over its CPU time — and
	// the median of the segments' values is reported; each op kind is read
	// from the workload's own lane if that issued it, from the carried lane
	// otherwise. What a write costs is the calling thread's CPU time over
	// the call, because the time it waits for the box's disk is the box's
	// and does not repeat (README.md). On the service the kNN median is the
	// open loop's, from due time — the follower's at the designated rate
	// with the insert stream replicating underneath — and the throughput is
	// requests over the process's CPU time across the four steps.
	perSegment := map[string][]float64{}
	laneOf := func(kind opKind) *laneResult {
		lanes := append([]laneResult{prim, ap.readOnly}, car...)
		for i := range lanes {
			if lanes[i].has(kind) {
				return &lanes[i]
			}
		}
		panic("no lane of " + w.name + " issues " + string(kind))
	}
	report := func(name string, perSeg []float64) {
		perSegment[name] = perSeg
		res.set(endToEnd, name, median(perSeg))
	}
	report("range_p50_ms", laneOf(opRange).perSegment(opRange, 0.50))
	report("contains_p50_ms", laneOf(opContains).perSegment(opContains, 0.50))
	report("approx_knn_p50_ms", laneOf(opApprox).perSegment(opApprox, 0.50))
	res.set(endToEnd, "approx_recall_at_10", ap.recall)
	report("insert_cpu_ms", laneOf(opInsert).quantiles(opInsert, 0.50, true))
	if s.pair == nil {
		report("knn_p50_ms", laneOf(opKNN).perSegment(opKNN, 0.50))
		report("ops_per_cpu_s", prim.opsPerCPUSecPerSegment())
	} else {
		res.set(endToEnd, "knn_p50_ms", steps[designatedStep].P50Ms)
		sent := writes.Sent
		for _, st := range steps {
			sent += st.Sent
		}
		res.set(endToEnd, "ops_per_cpu_s", float64(sent)/openCPU.Seconds())
	}
	res.set(endToEnd, "max_rate_under_slo", maxRateUnderSLO(steps))

	// What does not repeat on a shared box, and is therefore shown and not
	// gated: the tails, and everything that waits for the disk.
	wall := map[string]float64{"approx_knn_p95_ms": median(laneOf(opApprox).perSegment(opApprox, tail))}
	if w.approxNative() {
		wall["approx_churn_knn_mean_ms"] = median(ap.churn.meansMs(opApprox))
	}
	if s.pair == nil {
		wall["knn_p95_ms"] = median(laneOf(opKNN).perSegment(opKNN, tail))
		wall["ops_per_s"] = median(prim.opsPerSecPerSegment())
		wall["insert_p50_ms"] = median(laneOf(opInsert).perSegment(opInsert, 0.50))
		wall["insert_p95_ms"] = median(laneOf(opInsert).perSegment(opInsert, tail))
	} else {
		wall["knn_p95_ms"] = steps[designatedStep].P95Ms
		wall["ops_per_s"] = steps[len(steps)-1].AchievedRPS
		wall["insert_p50_ms"] = quantileMs(writes.byRequest, 0.50)
		wall["insert_p95_ms"] = quantileMs(writes.byRequest, tail)
	}
	res.Detail["wall"] = wall
	res.Detail["per_segment"] = perSegment
	res.Detail["open_loop_steps"] = steps
	res.Detail["slo_ms"] = w.sloMs
	res.Detail["lane_seconds"] = laneSeconds
	res.Detail["node_cache_hit_rate"] = guards.nodeHitRate()
	res.Detail["pool_hit_rate"] = guards.poolHitRate()
	if !o.tiny {
		if msg := w.checkGuards(guards); msg != "" {
			res.count(1, 1, msg)
		}
	}
	res.Correct = res.Failed == 0
	return res, err
}

func newResult(w workload, o options, trace int) *result {
	scale := "full"
	if o.tiny {
		scale = "tiny"
	}
	status := "ok"
	if runtime.NumCPU() < 2 {
		status = "unverified"
	}
	return &result{
		Workload: w.name, Trace: trace, Seed: o.seed, Seconds: o.seconds, Scale: scale, Status: status,
		Env: captureEnv(o.seed), Metrics: map[string]metricValue{}, Detail: map[string]any{},
	}
}

// cacheStats are the cache counters the workload guards read, summed over
// every index of the system under test.
type cacheStats struct {
	nodeHits, nodeMisses, poolHits, poolMisses int64
}

func cacheCounters(s *sut) cacheStats {
	var cs cacheStats
	if s.ix != nil {
		c := s.ix.Counters()
		p := s.ix.Tree().Pool().Stats()
		return cacheStats{c.NodeCacheHits, c.NodeCacheMisses, p.Hits, p.Misses}
	}
	if report, err := s.pair.stats(s.pair.follower); err == nil {
		for _, sh := range report.Collections[collectionName].Shard {
			cs.nodeHits += sh.NodeCache.Hits
			cs.nodeMisses += sh.NodeCache.Misses
			cs.poolHits += sh.BufferPool.Hits
			cs.poolMisses += sh.BufferPool.Misses
		}
	}
	return cs
}

func (a cacheStats) since(b cacheStats) cacheStats {
	return cacheStats{a.nodeHits - b.nodeHits, a.nodeMisses - b.nodeMisses, a.poolHits - b.poolHits, a.poolMisses - b.poolMisses}
}

func rate(hits, misses int64) float64 {
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (a cacheStats) nodeHitRate() float64 { return rate(a.nodeHits, a.nodeMisses) }
func (a cacheStats) poolHitRate() float64 { return rate(a.poolHits, a.poolMisses) }

// checkGuards reports a violated cache-behaviour guard, or "".
func (w workload) checkGuards(cs cacheStats) string {
	var bad []string
	if r := cs.nodeHitRate(); r < w.minNodeCacheHit || r > w.maxNodeCacheHit {
		bad = append(bad, fmt.Sprintf("node-cache hit rate %.3f outside [%.2f, %.2f]", r, w.minNodeCacheHit, w.maxNodeCacheHit))
	}
	if r := cs.poolHitRate(); r > w.maxPoolHit {
		bad = append(bad, fmt.Sprintf("pool hit rate %.3f above %.2f", r, w.maxPoolHit))
	}
	if len(bad) == 0 {
		return ""
	}
	return w.name + " guard: " + strings.Join(bad, "; ")
}

// scratchDir creates the run's private scratch directory.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

func spanDumpPath(out, workload string) string {
	return filepath.Join(out, workload+"-spans.json")
}
