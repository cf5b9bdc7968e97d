package obs

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// PhaseStat is one phase's aggregate over a trace: how many spans, their
// total wall time, and the summed payload (collective values). The
// aggregates are exact even when the span ring has wrapped.
type PhaseStat struct {
	// Phase is the stable snake_case phase name (Phase.String).
	Phase string `json:"phase"`
	// Count is the number of spans recorded for the phase.
	Count int64 `json:"count"`
	// Seconds is the summed span duration. The counting-only collective
	// phase reports 0: a reduction's time exists only in the distributed
	// cost model.
	Seconds float64 `json:"seconds"`
	// Payload is the summed span payload: reduced float64 values for
	// collectives, 0 elsewhere.
	Payload int64 `json:"payload,omitempty"`
}

// Breakdown is the per-solve phase summary — the repo's analogue of the
// paper's Table 3 row: where the wall time went and how many collectives the
// run needed.
type Breakdown struct {
	// TotalSeconds sums the timed phases' wall time (excludes
	// counting-only phases by construction, since they carry no duration).
	TotalSeconds float64 `json:"total_seconds"`
	// Collectives and CollectiveValues total the global reductions and
	// their reduced float64 payload (the Table 1 scalability columns).
	Collectives      int64 `json:"collectives"`
	CollectiveValues int64 `json:"collective_values"`
	// Phases lists every phase with at least one span, in Phase order.
	Phases []PhaseStat `json:"phases"`
	// SpansRetained and SpansDropped describe the ring's state: retained
	// raw spans available from Spans, and spans overwritten after wrap.
	SpansRetained int    `json:"spans_retained"`
	SpansDropped  uint64 `json:"spans_dropped"`
}

// Breakdown aggregates the trace into per-phase stats. Safe on a nil tracer
// (returns the zero Breakdown).
func (t *Tracer) Breakdown() Breakdown {
	var b Breakdown
	if t == nil {
		return b
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := Phase(0); p < NumPhases; p++ {
		a := t.agg[p]
		if a.count == 0 {
			continue
		}
		st := PhaseStat{
			Phase:   p.String(),
			Count:   a.count,
			Seconds: float64(a.nanos) / 1e9,
			Payload: a.payload,
		}
		b.Phases = append(b.Phases, st)
		b.TotalSeconds += st.Seconds
		if p == PhaseCollective {
			b.Collectives = a.count
			b.CollectiveValues = a.payload
		}
	}
	b.SpansRetained = len(t.ring)
	b.SpansDropped = t.dropped
	return b
}

// Render writes the breakdown as an aligned table mirroring the paper's
// Table 3 decomposition: one row per phase with count, time, share of timed
// work, and payload where meaningful.
func (b Breakdown) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\ttime\tshare\tpayload")
	for _, st := range b.Phases {
		share := "-"
		if st.Seconds > 0 && b.TotalSeconds > 0 {
			share = fmt.Sprintf("%.1f%%", 100*st.Seconds/b.TotalSeconds)
		}
		payload := "-"
		if st.Payload != 0 {
			payload = fmt.Sprintf("%d", st.Payload)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", st.Phase, st.Count, fmtSeconds(st.Seconds), share, payload)
	}
	fmt.Fprintf(tw, "total\t\t%s\t\t%d collectives (%d values)\n",
		fmtSeconds(b.TotalSeconds), b.Collectives, b.CollectiveValues)
	tw.Flush()
}

// fmtSeconds renders a duration with a unit fitted to its magnitude.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
