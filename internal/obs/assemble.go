package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// SpanNode is one assembled span: the raw record and its place in the
// tree.
type SpanNode struct {
	SpanRecord
	// Children are this span's assembled children, by start time.
	Children []*SpanNode
}

// End returns the span's end time.
func (s *SpanNode) End() time.Time { return s.Start.Add(s.Dur) }

// Trace is one interaction's assembled span tree.
type Trace struct {
	// ID is the trace ID every span shares.
	ID uint64
	// Spans holds every span of the trace, sorted by start.
	Spans []*SpanNode
	// Roots are the spans with no resolvable parent. A well-formed
	// trace has exactly one; orphans (nonzero parent that was never
	// exported, e.g. evicted from a full ring) surface as extra roots.
	Roots []*SpanNode
	// Orphans counts spans whose nonzero parent could not be resolved.
	Orphans int
	// Complete reports a single root and no orphans. Incomplete traces
	// are still rendered — with the gap visible — rather than dropped.
	Complete bool
}

// Root returns the earliest root span (nil for an empty trace).
func (t *Trace) Root() *SpanNode {
	if len(t.Roots) == 0 {
		return nil
	}
	return t.Roots[0]
}

// Start returns the trace's earliest span start.
func (t *Trace) Start() time.Time {
	if len(t.Spans) == 0 {
		return time.Time{}
	}
	return t.Spans[0].Start
}

// Duration returns the wall-clock window the trace covers, from its
// earliest start to its latest end.
func (t *Trace) Duration() time.Duration {
	var end time.Time
	for _, s := range t.Spans {
		if e := s.End(); e.After(end) {
			end = e
		}
	}
	if len(t.Spans) == 0 {
		return 0
	}
	return end.Sub(t.Start())
}

// Tiers returns the distinct tier labels the trace touches, in order of
// first appearance.
func (t *Trace) Tiers() []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range t.Spans {
		if !seen[s.Tier] {
			seen[s.Tier] = true
			out = append(out, s.Tier)
		}
	}
	return out
}

// Assemble joins span records into per-trace trees. Records may arrive
// in any order; untraced records (zero trace or span ID) are skipped
// and duplicates by (trace, span) are dropped, first occurrence wins.
// Spans whose parent is missing become extra roots and mark the trace
// incomplete. Traces are returned sorted by start time.
func Assemble(recs []SpanRecord) []*Trace {
	type key struct{ trace, span uint64 }
	byTrace := make(map[uint64][]*SpanNode)
	seen := make(map[key]bool)
	for _, rec := range recs {
		if rec.Trace == 0 || rec.Span == 0 {
			continue
		}
		k := key{rec.Trace, rec.Span}
		if seen[k] {
			continue
		}
		seen[k] = true
		byTrace[rec.Trace] = append(byTrace[rec.Trace], &SpanNode{SpanRecord: rec})
	}

	traces := make([]*Trace, 0, len(byTrace))
	for id, spans := range byTrace {
		traces = append(traces, assembleOne(id, spans))
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start().Before(traces[j].Start()) })
	return traces
}

func assembleOne(id uint64, spans []*SpanNode) *Trace {
	t := &Trace{ID: id}
	byID := make(map[uint64]*SpanNode, len(spans))
	for _, s := range spans {
		byID[s.Span] = s
	}
	for _, s := range spans {
		parent := byID[s.Parent]
		switch {
		case s.Parent == 0:
			t.Roots = append(t.Roots, s)
		case parent == nil || parent == s:
			t.Orphans++
			t.Roots = append(t.Roots, s)
		default:
			parent.Children = append(parent.Children, s)
		}
	}
	// Guard against parent cycles (corrupt input): any span not
	// reachable from a root is promoted to one.
	reached := make(map[*SpanNode]bool, len(spans))
	var mark func(*SpanNode)
	mark = func(s *SpanNode) {
		if reached[s] {
			return
		}
		reached[s] = true
		for _, c := range s.Children {
			mark(c)
		}
	}
	for _, r := range t.Roots {
		mark(r)
	}
	for _, s := range spans {
		if !reached[s] {
			t.Orphans++
			t.Roots = append(t.Roots, s)
			// Detach the promoted span from its in-cycle parent so the
			// span graph is a forest again and tree walks terminate.
			if p := byID[s.Parent]; p != nil {
				for i, c := range p.Children {
					if c == s {
						p.Children = append(p.Children[:i], p.Children[i+1:]...)
						break
					}
				}
			}
			mark(s)
		}
	}

	byStart := func(ss []*SpanNode) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
	}
	for _, s := range spans {
		byStart(s.Children)
	}
	t.Spans = spans
	byStart(t.Spans)
	byStart(t.Roots)
	t.Complete = len(t.Roots) == 1 && t.Orphans == 0
	return t
}

// Slowest returns the n traces with the longest duration, slowest
// first.
func Slowest(traces []*Trace, n int) []*Trace {
	out := append([]*Trace(nil), traces...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration() > out[j].Duration() })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Medians returns up to n traces centered on the median duration —
// the "typical interaction" complement to Slowest.
func Medians(traces []*Trace, n int) []*Trace {
	out := append([]*Trace(nil), traces...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration() < out[j].Duration() })
	if n >= len(out) {
		return out
	}
	lo := (len(out) - n) / 2
	return out[lo : lo+n]
}

// WriteWaterfall renders one assembled trace as an indented tree with
// tier labels, per-hop offsets from the trace start, and durations:
//
//	trace 42 — 5 spans, tiers client>edge>backend>db, 3.1ms, complete
//	+0s       [client ] client.interaction   3.1ms
//	  +0.2ms  [edge   ] edge.request         2.7ms
//	    +0.9ms  [backend] backend.apply      1.1ms
func WriteWaterfall(w io.Writer, t *Trace) error {
	status := "complete"
	if !t.Complete {
		status = fmt.Sprintf("INCOMPLETE (%d roots, %d orphans)", len(t.Roots), t.Orphans)
	}
	tiers := ""
	for i, tier := range t.Tiers() {
		if i > 0 {
			tiers += ">"
		}
		tiers += tier
	}
	if _, err := fmt.Fprintf(w, "trace %d — %d spans, tiers %s, %s, %s\n",
		t.ID, len(t.Spans), tiers, fmtDur(t.Duration()), status); err != nil {
		return err
	}
	t0 := t.Start()
	var walk func(s *SpanNode, depth int) error
	walk = func(s *SpanNode, depth int) error {
		if _, err := fmt.Fprintf(w, "%*s+%-9s [%-7s] %-24s %s\n",
			2*depth, "", fmtDur(s.Start.Sub(t0)), s.Tier, s.Name, fmtDur(s.Dur)); err != nil {
			return err
		}
		for _, c := range s.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
