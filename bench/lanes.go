package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sgtree/internal/dataset"
)

// opKind is one letter of a lane pattern.
type opKind byte

const (
	opKNN      opKind = 'K'
	opRange    opKind = 'R'
	opContains opKind = 'C'
	opApprox   opKind = 'A'
	opInsert   opKind = 'I'
	opDelete   opKind = 'D'
)

// opNames are the span names of the ops in the traced pass.
var opNames = map[opKind]string{
	opKNN: "op.knn", opRange: "op.range", opContains: "op.contains",
	opApprox: "op.approx_knn", opInsert: "op.insert", opDelete: "op.delete",
}

// op is one scripted call: what to ask, or what to write under which id.
type op struct {
	kind  opKind
	items dataset.Transaction
	id    uint32
}

// write reports whether the op changes the stored sets.
func (k opKind) write() bool { return k == opInsert || k == opDelete }

// issue runs the op against t and returns how long the call took and, for
// a write, how much CPU time the calling thread spent in it (lane.run pins
// the caller to its thread). The CPU clock is read outside the timed
// interval.
func (o op) issue(t target) (wall, cpu time.Duration, err error) {
	if o.kind.write() {
		cpu = -threadCPU()
	}
	wall, err = o.timed(t)
	if o.kind.write() {
		cpu += threadCPU()
	}
	return wall, cpu, err
}

func (o op) timed(t target) (time.Duration, error) {
	var err error
	start := time.Now()
	switch o.kind {
	case opKNN:
		res, _, kerr := t.KNN(o.items, knnK)
		if err = kerr; err == nil && len(res) != knnK {
			err = fmt.Errorf("knn returned %d matches, want %d", len(res), knnK)
		}
	case opRange:
		_, _, err = t.Range(o.items, rangeEps)
	case opContains:
		ids, _, cerr := t.Contains(o.items)
		if err = cerr; err == nil && len(ids) == 0 {
			err = fmt.Errorf("containment of a stored prefix returned nothing")
		}
	case opApprox:
		_, _, err = t.Approx(o.items, knnK)
	case opInsert:
		err = t.Insert(o.id, o.items)
	case opDelete:
		err = t.Delete(o.id, o.items)
	default:
		err = fmt.Errorf("unknown op %q", o.kind)
	}
	return time.Since(start), err
}

// scripter lays out a closed-loop stream segment by segment. A script does
// not depend on the seed, so every run of a workload issues the same calls
// in the same order. Every segment asks the same questions — each read kind
// walks its fixed population from the start — so that two segments differ
// by what the box did in the meantime, not by which queries they drew, and
// the median of the segments' values means something. Writes cannot repeat:
// they walk on through the write population from segment to segment, and a
// delete takes out the oldest set the stream has put in and not yet taken
// out.
type scripter struct {
	in      *inputs
	pattern string
	writes  int   // sets of the write population handed out so far
	live    []int // inserted and not yet deleted, oldest first
}

// segment returns the next n ops of the stream.
func (s *scripter) segment(n int) []op {
	next := map[opKind]int{}
	out := make([]op, n)
	for i := range out {
		kind := opKind(s.pattern[i%len(s.pattern)])
		o := op{kind: kind}
		switch kind {
		case opKNN, opRange, opApprox:
			o.items = s.in.queries[next[kind]%len(s.in.queries)]
		case opContains:
			o.items = s.in.prefixes[next[kind]%len(s.in.prefixes)]
		case opInsert:
			j := s.writes % (len(s.in.inserts) / 2) // the far half belongs to the open-loop stream
			s.writes++
			o.items, o.id = s.in.inserts[j], s.in.insertID(j)
			s.live = append(s.live, j)
		case opDelete:
			if len(s.live) == 0 {
				panic("lane pattern deletes before it inserts: " + s.pattern)
			}
			o.items, o.id = s.in.inserts[s.live[0]], s.in.insertID(s.live[0])
			s.live = s.live[1:]
		}
		next[kind]++
		out[i] = o
	}
	return out
}

// leftovers are the deletes that undo what the stream left behind.
func (s *scripter) leftovers() []op {
	undo := make([]op, len(s.live))
	for i, j := range s.live {
		undo[i] = op{kind: opDelete, items: s.in.inserts[j], id: s.in.insertID(j)}
	}
	return undo
}

// laneResult holds what a closed-loop lane measured: one scripted stream of
// ops in equal segments, the issue's five. lat[p][i] is how long op i of
// segment p took and cpu[p][i], for a write, the calling thread's CPU time
// in it; procCPU[p] is the CPU time of the whole process over segment p.
type laneResult struct {
	script    []op // the measured ops, segment after segment
	lat, cpu  [][]time.Duration
	procCPU   []time.Duration
	ops       int
	failed    int
	firstFail string
}

func (r *laneResult) fail(err error) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = err.Error()
	}
}

func (r *laneResult) has(kind opKind) bool {
	for _, o := range r.script {
		if o.kind == kind {
			return true
		}
	}
	return false
}

// segment returns the ops of segment p.
func (r *laneResult) segment(p int) []op {
	n := len(r.lat[p])
	return r.script[p*n : (p+1)*n]
}

// quantiles returns, for each segment, the p-quantile in milliseconds over
// every sample of the given kind in it — of the latencies, or of the
// calling thread's CPU times if cpu is set. A tail is whatever hit one call
// in twenty of the segment, whichever calls those were.
func (r *laneResult) quantiles(kind opKind, p float64, cpu bool) []float64 {
	samples := r.lat
	if cpu {
		samples = r.cpu
	}
	out := make([]float64, 0, len(samples))
	for s, seg := range samples {
		var xs []float64
		for i, o := range r.segment(s) {
			if o.kind == kind && r.lat[s][i] > 0 {
				xs = append(xs, ms(seg[i]))
			}
		}
		sort.Float64s(xs)
		out = append(out, percentile(xs, p))
	}
	return out
}

// perSegment is quantiles over the latencies.
func (r *laneResult) perSegment(kind opKind, p float64) []float64 {
	return r.quantiles(kind, p, false)
}

// opsPerSecPerSegment is each segment's ops over the time they took: one
// client, one call in flight, so the sum of the latencies.
func (r *laneResult) opsPerSecPerSegment() []float64 {
	out := make([]float64, 0, len(r.lat))
	for _, lat := range r.lat {
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		out = append(out, float64(len(lat))/total.Seconds())
	}
	return out
}

// opsPerCPUSecPerSegment is each segment's ops over the CPU time the whole
// process spent while they ran: caller, program, collector and, on the
// service, both servers and the replication between them.
func (r *laneResult) opsPerCPUSecPerSegment() []float64 {
	out := make([]float64, 0, len(r.lat))
	for s, lat := range r.lat {
		out = append(out, float64(len(lat))/r.procCPU[s].Seconds())
	}
	return out
}

// meansMs is, for each segment, the mean latency of one kind.
func (r *laneResult) meansMs(kind opKind) []float64 {
	out := make([]float64, 0, len(r.lat))
	for s, lat := range r.lat {
		var total time.Duration
		n := 0
		for i, o := range r.segment(s) {
			if o.kind == kind && lat[i] > 0 {
				total += lat[i]
				n++
			}
		}
		if n > 0 {
			out = append(out, ms(total)/float64(n))
		}
	}
	return out
}

// lane is the closed loop: one client, one call in flight.
type lane struct {
	t  target
	tr *tracer // non-nil in the traced pass: a span around every op
}

// play issues the ops in order; lat and cpu, when not nil, receive the
// latencies and the writes' CPU times.
func (l lane) play(res *laneResult, ops []op, lat, cpu []time.Duration) {
	for i, o := range ops {
		opStart := time.Now()
		d, c, err := o.issue(l.t)
		if err != nil {
			res.fail(err)
			continue
		}
		if l.tr != nil {
			l.tr.record(opNames[o.kind], "", i, opStart, d)
		}
		if lat != nil {
			lat[i], cpu[i] = d, c
		}
	}
}

// run drives one stream laid out by pattern: a warm-up of a twentieth of
// the measured ops if warm is set, then segments segments of perSegment ops
// each. The stream is not interrupted between segments, so what one leaves
// behind — sets written, caches filled or invalidated — the next one meets;
// when it ends, whatever it inserted and did not delete is taken out again,
// so that the next lane and the oracle find the contents they expect. A
// caller of the library stays on one thread throughout, so that the
// thread's CPU clock covers all of a call and nothing else; a client of the
// service does not, because there the work is done by other threads and a
// pinned client would only wake up more slowly.
func (l lane) run(in *inputs, pattern string, perSegment, segments int, warm bool) laneResult {
	if _, library := l.t.(libTarget); library {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	var res laneResult
	sc := &scripter{in: in, pattern: pattern}
	if warm {
		l.play(&res, sc.segment((perSegment*segments+19)/20), nil, nil)
	}
	for s := 0; s < segments; s++ {
		ops := sc.segment(perSegment)
		res.script = append(res.script, ops...)
		settle()
		lat, cpu := make([]time.Duration, perSegment), make([]time.Duration, perSegment)
		before := processCPU()
		l.play(&res, ops, lat, cpu)
		res.procCPU = append(res.procCPU, processCPU()-before)
		res.lat, res.cpu = append(res.lat, lat), append(res.cpu, cpu)
		res.ops += perSegment
	}
	if err := l.t.Undo(sc.leftovers()); err != nil {
		res.fail(err)
	}
	return res
}

// settle puts the process and the box's disk in the same state before
// every segment: garbage collected, nothing dirty left for the kernel to
// write back.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// churnPattern is one round of the reads-beside-writes lane: an insert,
// which invalidates the whole sketch index, then approx queries, the first
// of which pays the rebuild.
func churnPattern(queries int) string {
	return string(opInsert) + strings.Repeat(string(opApprox), queries)
}
