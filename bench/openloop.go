package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrivalSchedule draws the due times of a Poisson arrival process of the
// given rate over dur, as offsets from the start of the step, given that
// rate × dur requests arrive: that many independent uniform times, sorted.
// The count is fixed so that op counts, and every counter that follows from
// them, repeat exactly; the seed decides when the requests are due.
func arrivalSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// stepResult is one open-loop rate step. Latency is counted from the
// moment a request was due, not from when the generator got round to
// sending it, so the wait a stall imposes on the requests behind it is in
// the percentiles.
type stepResult struct {
	Rate        float64 `json:"rate_rps"`
	Sent        int     `json:"sent"`
	Failed      int     `json:"failed"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	SchedLagP99 float64 `json:"sched_lag_p99_ms"` // how late the generator sent
	DepthMid    int     `json:"queue_depth_mid"`  // due-but-unsent requests just before the step's midpoint
	DepthEnd    int     `json:"queue_depth_end"`  // … and just before its end
	AchievedRPS float64 `json:"achieved_rps"`     // requests over the time from the first due to the last completed
	StallShare  float64 `json:"stall_share"`      // share of requests slower than 5× the step's p50
	Pass        bool    `json:"pass"`

	firstFail string
	byRequest []time.Duration // latency from due time of request i
}

// runOpenStep sends request i at due[i] over conns connections, at most
// one request in flight per connection. A request whose connection is
// still busy waits in the generator: the workers take requests in due
// order, so a slow reply delays what is queued behind it and that delay is
// charged to the queued requests.
func runOpenStep(due []time.Duration, dur time.Duration, conns int, sloMs float64, do func(i int) error) stepResult {
	n := len(due)
	res := stepResult{Sent: n}
	if n == 0 {
		return res
	}
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	sentAt := make([]time.Duration, n)
	depth := make([]int, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				dueAt := start.Add(due[i])
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				// Requests already due that no connection has taken yet.
				queued := sort.Search(n, func(j int) bool { return due[j] > sent }) - (i + 1)
				if queued < 0 {
					queued = 0
				}
				errs[i] = do(i)
				done := time.Since(start)
				sentAt[i], depth[i] = sent, queued
				lag[i], lat[i] = sent-due[i], done-due[i]
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			res.Failed++
			if res.firstFail == "" {
				res.firstFail = err.Error()
			}
		}
	}
	res.byRequest = lat
	latencies := durationsMs(lat)
	res.P50Ms = percentile(latencies, 0.50)
	res.P90Ms = percentile(latencies, 0.90)
	res.P95Ms = percentile(latencies, 0.95)
	res.P99Ms = percentile(latencies, 0.99)
	res.SchedLagP99 = percentile(durationsMs(lag), 0.99)
	var last time.Duration
	for i := range lat {
		if done := due[i] + lat[i]; done > last {
			last = done
		}
	}
	res.AchievedRPS = float64(n) / (last - due[0]).Seconds()
	slow := sort.SearchFloat64s(latencies, 5*res.P50Ms)
	res.StallShare = float64(n-slow) / float64(n)

	// Queue depth as the generator saw it over the tenth of the step before
	// its midpoint and over its last tenth (medians over the requests sent
	// in each window, so that one stall does not decide it). A backlog
	// that is larger at the end than at the middle, and more than noise, is
	// growing: the rate is beyond what the system sustains however the
	// percentiles of this short window read.
	depthIn := func(from, to time.Duration) int {
		var ds []float64
		for i := range sentAt {
			if sentAt[i] >= from && sentAt[i] < to {
				ds = append(ds, float64(depth[i]))
			}
		}
		return int(median(ds))
	}
	res.DepthMid = depthIn(dur*4/10, dur/2)
	res.DepthEnd = depthIn(dur*9/10, dur)
	growing := res.DepthEnd > res.DepthMid && res.DepthEnd > n/100+conns
	res.Pass = res.Failed == 0 && res.P99Ms <= sloMs && !growing
	return res
}

// maxRateUnderSLO is the highest offered rate whose step passed.
func maxRateUnderSLO(steps []stepResult) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Pass && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}
