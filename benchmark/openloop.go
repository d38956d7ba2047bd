package main

import (
	"sync"
	"time"
)

// openLoopStats is what one open-loop phase measured, in request
// order. latencyMs[i] runs from the instant request i was due, not
// from when it was sent: when the server (or the generator) stalls,
// the requests that fell due meanwhile are charged the wait, which is
// what independent users would have seen.
type openLoopStats struct {
	latencyMs  []float64
	latenessMs []float64 // how late the generator handed each request over
	backlogEnd int       // due but not yet picked up when the schedule ended
	wall       time.Duration
}

// openLoop sends rate*d requests on a fixed schedule. One goroutine,
// the caller's, keeps the schedule: it prepares request i, sleeps until
// it is due and hands it to whichever of the conns connections is free
// next, never waiting for a reply. send performs the request on
// connection conn and returns when its reply was read.
func openLoop[T any](rate float64, d time.Duration, conns int,
	prepare func(i uint64) T, send func(conn int, i uint64, req T) time.Time) openLoopStats {

	n := int(rate * d.Seconds())
	st := openLoopStats{latencyMs: make([]float64, n), latenessMs: make([]float64, n)}
	type job struct {
		i   uint64
		due time.Time
		req T
	}
	// Sized to the number of sends, so the schedule never blocks on a
	// slow server: that is the difference from a closed loop.
	queue := make(chan job, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range queue {
				done := send(c, j.i, j.req)
				st.latencyMs[j.i] = done.Sub(j.due).Seconds() * 1e3
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req := prepare(uint64(i))
		due := t0.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		st.latenessMs[i] = time.Since(due).Seconds() * 1e3
		queue <- job{uint64(i), due, req}
	}
	if wait := time.Until(t0.Add(time.Duration(n) * interval)); wait > 0 {
		time.Sleep(wait)
	}
	st.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	st.wall = time.Since(t0)
	return st
}
