package main

import (
	"sort"
	"sync"
	"time"
)

// span is one interval recorded around a call into a layer's public
// function. Start and End are nanoseconds since the tracer was created,
// Parent is the index of the span that caused this one (-1 for a root) and
// Op is the index of the benchmark op the span belongs to (-1 outside ops),
// so all spans of one op share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is valid
// and records nothing, which is how the untraced run pays no more than a nil
// check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a solver phase
// reported by obs.Tracer).
func (t *tracer) add(name string, parent, op int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + dur.Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums durations and self times by span name, in milliseconds.
type spanTotal struct {
	Count  int     `json:"count"`
	MS     float64 `json:"ms"`
	SelfMS float64 `json:"self_ms"`
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.MS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(self[i]) / 1e6
		out[s.Name] = t
	}
	return out
}
