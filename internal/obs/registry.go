package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Registry is a named collection of metrics. Lookups are get-or-create
// and safe for concurrent use; hot paths should resolve their metric
// once (package-level var or struct field) and hold the pointer, so the
// steady-state cost of a metric is a single atomic operation.
//
// Default is the process-wide registry every instrumented package
// reports into and every debug endpoint serves; independent registries
// exist for tests.
type Registry struct {
	mu              sync.Mutex
	counters        map[string]*Counter
	gauges          map[string]*Gauge
	hists           map[string]*Histogram
	labeledCounters map[string]*LabeledCounter
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:        make(map[string]*Counter),
		gauges:          make(map[string]*Gauge),
		hists:           make(map[string]*Histogram),
		labeledCounters: make(map[string]*LabeledCounter),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NumMetrics reports how many distinct metrics (counters + gauges +
// histograms) are registered — the liveness signal /healthz exposes.
func (r *Registry) NumMetrics() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.hists)
}

// Diff snapshots the registry and returns the activity since before —
// shorthand for r.Snapshot().Sub(before), safe under concurrent
// writers (writers may land observations between the subtraction's two
// sides; the slack is bounded by what was in flight).
func (r *Registry) Diff(before Snapshot) Snapshot {
	return r.Snapshot().Sub(before)
}

// Snapshot captures every registered metric at (approximately) one
// point in time.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time capture of a registry. It marshals
// directly to JSON for the /metrics?format=json endpoint.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Sub returns the activity between two snapshots of the same registry:
// counters and histograms subtract (clamped at zero), gauges keep their
// later value (a level, not a rate). Metrics absent from before are
// reported whole; metrics with zero activity are dropped.
func (s Snapshot) Sub(before Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	for n, v := range s.Counters {
		if d := v - min(v, before.Counters[n]); d > 0 {
			out.Counters[n] = d
		}
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, h := range s.Histograms {
		if d := h.Sub(before.Histograms[n]); d.Count > 0 {
			out.Histograms[n] = d
		}
	}
	return out
}

// WriteText renders the snapshot as a sorted, line-oriented text table —
// the format /metrics serves by default:
//
//	counter <name> <value>
//	gauge <name> <value>
//	hist <name> count=<n> mean=<d> p50=<d> p95=<d> p99=<d> max=<d>
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "hist %s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			n, h.Count, fmtDur(h.Mean()), fmtDur(h.Quantile(0.50)),
			fmtDur(h.Quantile(0.95)), fmtDur(h.Quantile(0.99)), fmtDur(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// fmtDur rounds durations for human-readable metric lines.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
