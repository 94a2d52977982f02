package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the index of the span whose call contains this one
// (-1 for a root).
type span struct {
	Name   string    `json:"name"`
	Req    int       `json:"req"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// record appends a finished span and returns its index for children.
func (t *tracer) record(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// timed runs fn as a span named name under parent and returns its index.
func (t *tracer) timed(name string, req, parent int, fn func()) int {
	start := time.Now()
	fn()
	return t.record(name, req, parent, start, time.Now())
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the time its direct children took. The layer
// replay calls each contained entry point on its own, so a child's
// interval lies beside its parent's rather than inside it; its duration
// is what the parent's call spent in it. Grandchildren are subtracted
// from their own parent only. Self time never goes below zero: a child
// replayed faster than it ran inside the parent is clamped.
func selfTimes(spans []span) map[string][]time.Duration {
	childSum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		self := s.dur() - childSum[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// medianSelfMicros is the median self time of the spans named name, in
// microseconds (0 when none was recorded).
func medianSelfMicros(self map[string][]time.Duration, name string) float64 {
	ds := self[name]
	if len(ds) == 0 {
		return 0
	}
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return median(us)
}

// writeSpans dumps every span as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
