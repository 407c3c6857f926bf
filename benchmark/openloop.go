package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrival is one operation of an open loop, with every time an offset
// from the phase start.
type arrival struct {
	due   time.Duration // when the schedule said to send it
	fired time.Duration // when the generator actually sent it
	done  time.Duration // when its reply was in hand
	// status is the reply's HTTP status; valid is false for a 200 whose
	// content failed the check.
	status int
	valid  bool
}

// latency is timed from the due time, not the send time: when the
// generator or the system stalls, the wait that stall imposes on later
// requests counts against the system.
func (a arrival) latency() time.Duration { return a.done - a.due }

// late is how far behind its schedule the generator sent the request.
func (a arrival) late() time.Duration { return a.fired - a.due }

// schedule lays n arrivals at a constant rate, each moved by a seeded
// jitter of up to a quarter interval either way, so arrivals neither
// beat in lockstep with the batcher's flush timer nor reorder.
func schedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	interval := float64(time.Second) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.25 + 0.5*(rng.Float64()-0.5)) * interval)
	}
	return due
}

// openLoop sends do(i) at each due time from one scheduler goroutine
// and never waits for a reply before the next send. Each reply is
// checked after its completion time is taken and then dropped, so the
// harness holds no reply memory that would change the garbage
// collector's pace as the phase goes on. It returns once every reply is
// in, with the phase wall (start to last reply).
func openLoop(due []time.Duration, do func(i int) reply, check func(i int, r reply) bool) ([]arrival, time.Duration) {
	out := make([]arrival, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		out[i].fired = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := do(i)
			out[i].done = time.Since(start)
			out[i].status = r.status
			out[i].valid = check(i, r)
		}(i)
	}
	wg.Wait()
	return out, time.Since(start)
}
