package main

import (
	"sync"
	"time"
)

// sample is the record of one scheduled request.
type sample struct {
	op         int
	dispatched bool // handed to a connection (false: the stream stopped first)
	// late is how far behind its due time the generator handed the request
	// to a connection; wait how long it then queued for a free connection;
	// latency runs from the due time to the last response byte.
	late, wait, latency time.Duration
	err                 error
	skipped             bool // dispatched but never sent: abortAfter passed
}

// streamResult is the outcome of one open-loop stream.
type streamResult struct {
	samples []sample // index-parallel with the schedule
}

// accounting counts a stream's requests: every request sent is attempted
// and either succeeded or failed; a dispatched request the generator gave
// up on before sending it (abortAfter) is skipped, not attempted.
func (r streamResult) accounting() (attempted, ok, failed, skipped int) {
	for _, s := range r.samples {
		switch {
		case !s.dispatched:
		case s.skipped:
			skipped++
		case s.err != nil:
			attempted++
			failed++
		default:
			attempted++
			ok++
		}
	}
	return attempted, ok, failed, skipped
}

// okLatencies returns the latencies of the successful requests whose index
// passes keep (nil keeps all).
func (r streamResult) okLatencies(keep func(i int) bool) []time.Duration {
	var out []time.Duration
	for i, s := range r.samples {
		if s.dispatched && s.err == nil && !s.skipped && (keep == nil || keep(i)) {
			out = append(out, s.latency)
		}
	}
	return out
}

// loopControl holds runOpenLoop's optional controls.
type loopControl struct {
	// abortAfter skips a request still unsent that long past its due time
	// (0 never skips), which bounds the drain of an overloaded phase.
	abortAfter time.Duration
	// stop, when closed, ends dispatching early; the requests already
	// dispatched still complete.
	stop <-chan struct{}
	// observe, when set, sees every dispatched request's sample once it
	// has completed or been skipped (called from the worker goroutines).
	observe func(sample)
}

// runOpenLoop drives one open-loop stream: a dispatcher hands each
// scheduled request to the connection pool at its due time (never waiting
// for earlier responses), and len(conns) workers each send one request at a
// time on their own connection. send performs request op on connection c
// and returns once its response has been read and checked; latency is
// timed from the due time.
func runOpenLoop[C any](sched []arrival, conns []C, ctl loopControl, send func(c C, op int) error) streamResult {
	res := streamResult{samples: make([]sample, len(sched))}
	// Sized to the schedule so the dispatcher never blocks: its lateness
	// measures the generator alone, not the connections.
	queue := make(chan int, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c C) {
			defer wg.Done()
			for i := range queue {
				due := start.Add(sched[i].due)
				s := &res.samples[i]
				t0 := time.Now()
				s.wait = t0.Sub(due) - s.late
				if ctl.abortAfter > 0 && t0.Sub(due) > ctl.abortAfter {
					s.skipped = true
				} else {
					s.err = send(c, sched[i].op)
					s.latency = time.Since(due)
				}
				if ctl.observe != nil {
					ctl.observe(*s)
				}
			}
		}(c)
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctl.stop:
				break dispatch
			}
		}
		s := &res.samples[i]
		s.op, s.dispatched = a.op, true
		s.late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// runClosedLoop keeps every connection busy for dur: each sends its next
// request, drawn from next, as soon as the previous response is checked.
// next is called under a lock, so it may use an unsynchronised generator.
// Latency is each request's own service time.
func runClosedLoop[C any](conns []C, dur time.Duration, next func() int, send func(c C, op int) error) streamResult {
	var mu sync.Mutex
	var res streamResult
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c C) {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				op := next()
				mu.Unlock()
				t0 := time.Now()
				err := send(c, op)
				s := sample{op: op, dispatched: true, latency: time.Since(t0), err: err}
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}

// runSequence sends requests 0..n-1 one after another on one connection (a
// closed loop with a fixed count); latency is each request's service time.
func runSequence[C any](c C, n int, send func(c C, op int) error) streamResult {
	res := streamResult{samples: make([]sample, n)}
	for i := range res.samples {
		t0 := time.Now()
		err := send(c, i)
		res.samples[i] = sample{op: i, dispatched: true, latency: time.Since(t0), err: err}
	}
	return res
}
