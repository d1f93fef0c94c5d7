package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// replayed op share Op; Parent names the span one entry point up the stack
// on the same input ("" at the top). Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Nothing inside the program is instrumented: every span is recorded by
// the benchmark around a call into an exported function.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span.
func (tr *tracer) record(name, parent string, op int, start time.Time, d time.Duration) {
	s := start.Sub(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	tr.mu.Unlock()
}

// time runs fn inside a span and returns how long it took.
func (tr *tracer) time(name, parent string, op int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.record(name, parent, op, start, d)
	return d
}

// durations returns the duration of every span of one name, in record
// order.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianUs is the median duration of the spans of one name, in
// microseconds; 0 when there are none.
func (tr *tracer) medianUs(name string) float64 {
	ds := tr.durations(name)
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2].Nanoseconds()) / 1e3
}

// dump writes every span as one JSON array.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
