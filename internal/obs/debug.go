package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"slices"
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
//	/metrics       text snapshot of the registry (?format=json for JSON)
//	/healthz       200 while Healthy() (503 otherwise); the body carries
//	               uptime, build info, and the registered metric count so
//	               liveness checks can assert more than reachability
//	/debug/spans   recent spans (?n=N to size the listing); ?trace=ID
//	               answers one trace's WriteWaterfall, ?last=1 that of the
//	               most recently finished root span (404 when the log
//	               holds no span of the trace)
//	/debug/events  recent forensic events
//	/debug/pprof/  the standard pprof handlers
//
// Malformed query parameters — a parameter the endpoint does not take,
// an unknown format, an unparsable trace ID — are rejected with 400
// rather than silently treated as defaults, so a caller with a typo (or
// one written against a format that no longer exists) finds out.
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

	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !onlyParams(w, r, "format") {
			return
		}
		snap := reg.Snapshot()
		switch r.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
		case "":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = snap.WriteText(w)
		default:
			http.Error(w, "bad format (want json, or none for text)", http.StatusBadRequest)
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
		if !onlyParams(w, r, "trace", "last", "n") {
			return
		}
		q := r.URL.Query()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if t, last := q.Get("trace"), q.Get("last"); t != "" || last != "" {
			recs := spans.snapshot()
			id := lastTrace(recs)
			if t != "" {
				var err error
				if id, err = strconv.ParseUint(t, 10, 64); err != nil {
					http.Error(w, "bad trace id", http.StatusBadRequest)
					return
				}
			}
			tr := traceIn(recs, id)
			if tr == nil {
				http.Error(w, "no spans for trace "+strconv.FormatUint(id, 10), http.StatusNotFound)
				return
			}
			_ = WriteWaterfall(w, tr)
			return
		}
		n := 100
		if s := q.Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		for _, rec := range spans.Recent(n) {
			fmt.Fprintf(w, "trace=%d span=%d parent=%d [%s] %-24s %s\n",
				rec.Trace, rec.Span, rec.Parent, rec.Tier, rec.Name, fmtDur(rec.Dur))
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if !onlyParams(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "events seq=%d dropped=%d\n", events.Seq(), events.Dropped())
		_ = WriteEventsText(w, events.Since(0))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// lastTrace returns the trace of the most recently finished root span
// in recs, or of the last span when none is a root (a daemon whose every
// span parents under a caller in another process); zero for none.
func lastTrace(recs []SpanRecord) uint64 {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Parent == 0 {
			return recs[i].Trace
		}
	}
	if len(recs) > 0 {
		return recs[len(recs)-1].Trace
	}
	return 0
}

// traceIn assembles the spans of trace id in recs (nil when it has none).
func traceIn(recs []SpanRecord, id uint64) *Trace {
	for _, t := range Assemble(recs) {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// onlyParams answers 400 and reports false when the request carries a
// query parameter outside allowed.
func onlyParams(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for name := range r.URL.Query() {
		if !slices.Contains(allowed, name) {
			http.Error(w, "unknown query parameter "+strconv.Quote(name), http.StatusBadRequest)
			return false
		}
	}
	return true
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
