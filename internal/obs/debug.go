package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"time"
)

// DebugOptions configures a debug listener. The zero value serves the
// Default registry and span log and always reports healthy.
type DebugOptions struct {
	// Registry served by /metrics (Default when nil).
	Registry *Registry
	// Spans served by /debug/spans (DefaultSpans when nil).
	Spans *SpanLog
	// Events served by /debug/events (DefaultEvents when nil).
	Events *EventLog
	// Healthy decides /healthz (always healthy when nil).
	Healthy func() bool
}

// NewDebugMux builds the debug HTTP handler:
//
//	/metrics       text snapshot of the registry (?format=json for JSON,
//	               ?format=prom for Prometheus exposition)
//	/healthz       200 while Healthy() (503 otherwise); the body carries
//	               uptime, build info, and the registered metric count so
//	               liveness checks can assert more than reachability
//	/debug/spans   recent spans (?trace=ID for one trace, ?n=N to limit
//	               the text listing, ?format=json&since=UNIXNANO to
//	               export records, ?limit=N to cap the response)
//	/debug/events  recent forensic events (?since=SEQ for the events
//	               after a sequence number, ?format=json for JSON Lines,
//	               ?limit=N to cap the response)
//	/debug/pprof/  the standard pprof handlers
//
// The two endpoints' cursors differ deliberately and are easy to mix
// up: /debug/spans?since= takes a START TIME in unix NANOSECONDS and is
// inclusive (records with Start >= since), because spans are keyed by
// wall-clock start; /debug/events?since= takes a SEQUENCE NUMBER and is
// exclusive (events with Seq > since), because events carry a
// log-assigned monotonic Seq. A poller advances the span cursor to the
// last record's start (tolerating the one-instant overlap — span IDs
// dedup it) and the event cursor to the last event's Seq. Both endpoints accept ?limit=N (N >= 1) to bound
// the response for pollers: the OLDEST N matching records are returned,
// so a capped poll still advances the cursor without skipping.
//
// Malformed query parameters (an unparsable since or limit, an unknown
// format) are rejected with 400 rather than silently treated as
// defaults, so a collector with a typo finds out instead of silently
// draining from zero.
func NewDebugMux(opts DebugOptions) *http.ServeMux {
	reg := opts.Registry
	if reg == nil {
		reg = Default
	}
	spans := opts.Spans
	if spans == nil {
		spans = DefaultSpans
	}
	events := opts.Events
	if events == nil {
		events = DefaultEvents
	}
	healthy := opts.Healthy
	if healthy == nil {
		healthy = func() bool { return true }
	}

	// parseLimit reads the optional limit query param (0 = unlimited).
	// Malformed or non-positive values are rejected with 400; the
	// bool result reports whether the caller should return.
	parseLimit := func(w http.ResponseWriter, r *http.Request) (int, bool) {
		s := r.URL.Query().Get("limit")
		if s == "" {
			return 0, true
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad limit (want positive integer)", http.StatusBadRequest)
			return 0, false
		}
		return v, true
	}

	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		switch r.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = snap.WriteText(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		fmt.Fprintf(w, "uptime %s\n", time.Since(started).Round(time.Millisecond))
		fmt.Fprintf(w, "metrics %d\n", reg.NumMetrics())
		if bi, ok := debug.ReadBuildInfo(); ok {
			fmt.Fprintf(w, "go %s\n", bi.GoVersion)
			fmt.Fprintf(w, "module %s\n", bi.Main.Path)
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision", "vcs.time", "vcs.modified":
					fmt.Fprintf(w, "%s %s\n", s.Key, s.Value)
				}
			}
		}
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		format := q.Get("format")
		switch format {
		case "", "text", "json":
		default:
			http.Error(w, "bad format (want json or text)", http.StatusBadRequest)
			return
		}
		var since time.Time
		if s := q.Get("since"); s != "" {
			ns, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since (want unix nanoseconds)", http.StatusBadRequest)
				return
			}
			since = time.Unix(0, ns)
		}
		limit, ok := parseLimit(w, r)
		if !ok {
			return
		}
		if format == "json" {
			w.Header().Set("Content-Type", "application/json")
			recs := spans.Since(since)
			if limit > 0 && len(recs) > limit {
				// Oldest-first truncation: the poller's next since
				// picks up exactly where the capped page ended.
				recs = recs[:limit]
			}
			if recs == nil {
				recs = []SpanRecord{}
			}
			_ = json.NewEncoder(w).Encode(recs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if t := q.Get("trace"); t != "" {
			id, err := strconv.ParseUint(t, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			_ = WriteTrace(w, spans.Trace(id))
			return
		}
		if q.Get("last") != "" {
			_ = WriteTrace(w, spans.Trace(spans.LastTrace()))
			return
		}
		n := 100
		if s := q.Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		if limit > 0 {
			n = limit
		}
		for _, rec := range spans.Recent(n) {
			fmt.Fprintf(w, "trace=%d span=%d parent=%d [%s] %-24s %s\n",
				rec.Trace, rec.Span, rec.Parent, rec.Tier, rec.Name, fmtDur(rec.Dur))
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		format := q.Get("format")
		switch format {
		case "", "text", "json":
		default:
			http.Error(w, "bad format (want json or text)", http.StatusBadRequest)
			return
		}
		var since uint64
		if s := q.Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since (want event sequence number)", http.StatusBadRequest)
				return
			}
			since = v
		}
		limit, ok := parseLimit(w, r)
		if !ok {
			return
		}
		evs := events.Since(since)
		if limit > 0 && len(evs) > limit {
			// Oldest-first truncation; the poller advances since to the
			// last returned event's seq and drains the rest next poll.
			evs = evs[:limit]
		}
		if format == "json" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = WriteEventsJSONL(w, evs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "events seq=%d dropped=%d\n", events.Seq(), events.Dropped())
		_ = WriteEventsText(w, evs)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug listener.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// StartDebug serves the debug mux on addr (e.g. "127.0.0.1:6060" or
// ":0") in the background. The returned server reports its bound Addr
// and must be Closed by the caller.
func StartDebug(addr string, opts DebugOptions) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	d := &DebugServer{
		srv: &http.Server{Handler: NewDebugMux(opts), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and closes open debug connections.
func (d *DebugServer) Close() error { return d.srv.Close() }
