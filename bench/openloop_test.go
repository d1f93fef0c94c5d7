package main

import (
	"math/rand"
	"testing"
	"time"
)

// A server that takes 20 ms per request can do 50 a second on one
// connection. Offered 100 a second, a generator that only timed each call
// would still report 20 ms; this one must show the queue.
func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	const service = 20 * time.Millisecond
	dur := 400 * time.Millisecond
	due := arrivalSchedule(rand.New(rand.NewSource(1)), 100, dur)
	res := runOpenStep(due, dur, 1, 50, func(int) error {
		time.Sleep(service)
		return nil
	})
	if res.Sent != len(due) || res.Failed != 0 {
		t.Fatalf("sent %d of %d, failed %d", res.Sent, len(due), res.Failed)
	}
	if res.P99Ms < 5*ms(service) {
		t.Errorf("p99 from due time %.1f ms: the backlog behind a %v service time is hidden", res.P99Ms, service)
	}
	if res.SchedLagP99 < 3*ms(service) {
		t.Errorf("generator reports sending at most %.1f ms late while its queue grew", res.SchedLagP99)
	}
	if res.DepthEnd <= res.DepthMid {
		t.Errorf("queue depth %d at the end, %d at the midpoint: want it growing", res.DepthEnd, res.DepthMid)
	}
	if res.Pass {
		t.Error("a rate twice the capacity passed the SLO")
	}
	if res.AchievedRPS > 60 {
		t.Errorf("achieved %.0f rps through a 50 rps server", res.AchievedRPS)
	}
}

// One stalled request must delay, and be charged to, everything that was
// due while the connection was busy with it.
func TestOpenLoopStallDelaysQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	dur := 500 * time.Millisecond
	due := arrivalSchedule(rand.New(rand.NewSource(2)), 200, dur)
	res := runOpenStep(due, dur, 1, 1000, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	dueDuringStall := 0
	for _, d := range due {
		if d > due[5] && d < due[5]+stall/2 {
			dueDuringStall++
		}
	}
	slow := 0
	for _, lat := range res.byRequest {
		if lat > stall/2 {
			slow++
		}
	}
	if dueDuringStall < 5 {
		t.Fatalf("schedule has only %d requests due during the stall; the test needs more", dueDuringStall)
	}
	if slow < dueDuringStall {
		t.Errorf("%d requests were due in the first half of a %v stall but only %d waited %v or more", dueDuringStall, stall, slow, stall/2)
	}
}

func TestOpenLoopBelowCapacityPasses(t *testing.T) {
	dur := 400 * time.Millisecond
	due := arrivalSchedule(rand.New(rand.NewSource(3)), 200, dur)
	var res stepResult
	for attempt := 0; attempt < 3 && !res.Pass; attempt++ { // a stall of the box is not the generator's
		res = runOpenStep(due, dur, 2, 50, func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
	}
	if !res.Pass {
		t.Errorf("200 rps into 2 connections of 1 ms service failed the 50 ms SLO three times: %+v", res)
	}
	if got := maxRateUnderSLO([]stepResult{{Rate: 100, Pass: true}, {Rate: 200, Pass: true}, {Rate: 400, Pass: false}}); got != 200 {
		t.Errorf("max rate under SLO = %v, want 200", got)
	}
}
