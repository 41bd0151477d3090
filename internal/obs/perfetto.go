package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// The Chrome trace-event format (the JSON dialect ui.perfetto.dev and
// chrome://tracing both load): a process ("pid") per tier, a thread
// ("tid") per trace within the tier, and one complete ("ph":"X") event
// per span. Metadata events name the lanes.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders assembled traces as Chrome trace-event JSON.
// Timestamps are microseconds relative to the earliest span across all
// traces. Each tier becomes a "process" lane; each trace gets one
// thread per tier it touches, so a cross-tier interaction reads as a
// waterfall stepping down the tier lanes.
func WriteTraceEvents(w io.Writer, traces []*Trace) error {
	// Stable pid per tier, in the architectural top-down order so
	// repeated runs diff cleanly; unknown tiers follow alphabetically.
	present := make(map[string]bool)
	for _, t := range traces {
		for _, tier := range t.Tiers() {
			present[tier] = true
		}
	}
	var tiers []string
	for _, tier := range []string{"client", "edge", "backend", "db", "proxy", "proc"} {
		if present[tier] {
			tiers = append(tiers, tier)
			delete(present, tier)
		}
	}
	var extra []string
	for tier := range present {
		extra = append(extra, tier)
	}
	sort.Strings(extra)
	tiers = append(tiers, extra...)
	tierPid := make(map[string]int, len(tiers))
	for i, tier := range tiers {
		tierPid[tier] = i + 1
	}

	var t0 time.Time
	for _, t := range traces {
		if s := t.Start(); t0.IsZero() || (!s.IsZero() && s.Before(t0)) {
			t0 = s
		}
	}

	file := traceEventFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	for tier, pid := range tierPid {
		file.TraceEvents = append(file.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": tier},
		})
	}
	// Deterministic metadata order (map iteration above is random).
	sort.Slice(file.TraceEvents, func(i, j int) bool {
		return file.TraceEvents[i].Pid < file.TraceEvents[j].Pid
	})

	for i, t := range traces {
		tid := i + 1
		for _, s := range t.Spans {
			ev := traceEvent{
				Name: s.Name,
				Cat:  s.Tier,
				Ph:   "X",
				Ts:   float64(s.Start.Sub(t0)) / float64(time.Microsecond),
				Dur:  float64(s.Dur) / float64(time.Microsecond),
				Pid:  tierPid[s.Tier],
				Tid:  tid,
				Args: map[string]any{
					"trace": s.Trace,
					"span":  s.Span,
				},
			}
			if s.Parent != 0 {
				ev.Args["parent"] = s.Parent
			}
			if !t.Complete {
				ev.Args["incomplete_trace"] = true
			}
			file.TraceEvents = append(file.TraceEvents, ev)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
