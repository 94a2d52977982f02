package main

import "time"

// loopStats is what a closed loop measured.
type loopStats struct {
	latMS  []float64 // latency of every successful operation
	failed int       // operations that errored or answered wrongly
	// rate is the successful operations over the time from the start
	// until the last operation ended, which with stride > 1 can be
	// seconds after the window.
	rate     float64
	firstErr error
}

// closedLoop issues op back to back until window has passed since the
// start: the next operation is sent only after the previous one
// completed. op returns the operation's latency in milliseconds, timed
// from when it was sent. An operation in flight at the end of the window
// finishes and counts. With stride > 1 the loop stops only before an
// operation whose index is a multiple of stride, so it completes whole
// blocks of stride operations.
func closedLoop(window time.Duration, stride int, op func(i int) (float64, error)) loopStats {
	start := time.Now()
	end := start.Add(window)
	var st loopStats
	for i := 0; i%stride != 0 || time.Now().Before(end); i++ {
		ms, err := op(i)
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.latMS = append(st.latMS, ms)
	}
	st.rate = float64(len(st.latMS)) / time.Since(start).Seconds()
	return st
}

// add folds a loop's counts into the report's attempted/failed totals
// and records its first error as a correctness problem.
func (r *report) add(st loopStats) {
	r.attempted += len(st.latMS) + st.failed
	r.failed += st.failed
	if st.firstErr != nil {
		r.wrong("%d operations failed, first: %v", st.failed, st.firstErr)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// reply is one raw answer kept from a measured window: the index of its
// request in the request pool, its status, its body and whether the
// router scattered it.
type reply struct {
	pool      int
	code      int
	raw       []byte
	scattered bool
}

// replies keeps the raw answers of a window, so they are decoded and
// checked after it instead of on the client's timed path, where the
// checks would share the cores with the server.
type replies []reply

// check runs fn on every kept reply in order and counts each reply it
// rejects as a failed operation; the first rejection becomes a
// correctness problem.
func (rs replies) check(rep *report, fn func(rp reply) error) {
	failed := 0
	var first error
	for _, rp := range rs {
		if err := fn(rp); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	rep.failed += failed
	if first != nil {
		rep.wrong("%d answers were wrong, first: %v", failed, first)
	}
}

// traceRun splits the window: the first half untraced, the second traced.
// between runs after the untraced half, for counters read over it alone.
// The traced half's operations replay through the layer entry points; the
// difference of the two medians is the tracing overhead.
func traceRun(rep *report, cfg runConfig, stride int, plain, traced func(i int) (float64, error), between func()) {
	before := readRuntime()
	a := closedLoop(cfg.window()/2, stride, plain)
	rep.add(a)
	rep.recordRuntime(before, len(a.latMS))
	between()
	b := closedLoop(cfg.window()/2, stride, traced)
	rep.add(b)
	rep.layer["trace.overhead_ms"] = median(b.latMS) - median(a.latMS)
	rep.detail["untraced_ops"] = len(a.latMS)
	rep.detail["traced_ops"] = len(b.latMS)
}
