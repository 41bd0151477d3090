// Command bench is the repository's benchmark: one named Trade workload
// per invocation, against an in-process topology assembled from the
// layers' public constructors. It prints every metric by name with its
// unit, checks that outputs are correct, and ends with one JSON line.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: rbes-lan, rbes-wan, rdb-wan, ras-wan or rbes-churn")
	fs.Int64Var(&o.seed, "seed", 42, "step-stream and population seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer ladder, per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	// Nothing here should take minutes; a wedged layer fails the run
	// instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+120*time.Second)
	defer cancel()

	var res *result
	if o.trace == 0 {
		res, err = endToEndRun(ctx, w, o, out)
	} else {
		res, err = perLayerRun(ctx, w, o, out)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// result is the JSON object the last line of standard output carries.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fixedRounds is how many rounds an end-to-end run always measures,
// whatever the time budget: the fixed work that counts are taken over,
// and the fewest rounds a quartile means anything for.
const fixedRounds = 3

// report prints metrics as it collects them for the result line.
type report struct {
	out     io.Writer
	defs    []metricDef
	metrics map[string]measured
	// err is the first metric that came out NaN or infinite: a round with
	// no samples, say. Printing it as 0 would read as the best possible
	// latency, so it fails the run instead.
	err error
}

func newReport(out io.Writer, defs []metricDef) *report {
	return &report{out: out, defs: defs, metrics: make(map[string]measured)}
}

func (r *report) set(name string, value float64, note string) {
	if (math.IsNaN(value) || math.IsInf(value, 0)) && r.err == nil {
		r.err = fmt.Errorf("metric %s is %v: nothing was measured for it", name, value)
	}
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = measured{Value: value, Unit: d.unit}
			fmt.Fprintf(r.out, "%-38s %14.6g %-6s %s\n", name, value, d.unit, note)
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// finish checks that every declared metric was reported, with a number.
func (r *report) finish(attempted, failed int) (*result, error) {
	if r.err != nil {
		return nil, r.err
	}
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: r.metrics}, nil
}

// spread is the note beside a timing metric: how many rounds its median
// is over, and how far they disagree.
func spread(q quartiles, unit string) string {
	return fmt.Sprintf("median of %d rounds, quartiles %.6g .. %.6g %s", q.n, q.q1, q.q3, unit)
}

// endToEndRun is -trace 0: the untraced run and what a user would see.
func endToEndRun(ctx context.Context, w workload, o options, out io.Writer) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	r, setups, err := runUntraced(ctx, w, o.seed, budget)
	if err != nil {
		return nil, err
	}
	p := r.phase
	fmt.Fprintf(out, "workload %s seed %d: %d rounds, %d interactions (%d failed), step hash %016x\n",
		w.name, o.seed, len(p.rounds), p.total.attempted, p.total.failed(), r.stepHash)
	for i, rd := range p.rounds {
		fmt.Fprintf(out, "  round %2d: %5d samples  p50 %8.4f  p95 %8.4f  p99 %8.4f ms  %9.2f ixn/s\n",
			i+1, rd.samples, rd.p50, rd.p95, rd.p99, rd.ixnPerS)
	}
	rep := newReport(out, endToEnd)
	rep.set("setup_s", setups.median, fmt.Sprintf("median of %d set-ups, quartiles %.6g .. %.6g s", setups.n, setups.q1, setups.q3))
	samples := p.over(func(r roundStats) float64 { return float64(r.samples) }).median
	p50 := p.over(func(r roundStats) float64 { return r.p50 })
	rep.set("ixn_p50_ms", p50.median, spread(p50, "ms")+fmt.Sprintf(", %.0f samples a round", samples))
	p95 := p.over(func(r roundStats) float64 { return r.p95 })
	rep.set("ixn_p95_ms", p95.median, spread(p95, "ms"))
	p99 := p.over(func(r roundStats) float64 { return r.p99 })
	fmt.Fprintf(out, "%-38s %14.6g %-6s %s (printed, not a metric)\n", "ixn_p99_ms", p99.median, "ms", spread(p99, "ms"))
	rate := p.over(func(r roundStats) float64 { return r.ixnPerS })
	rep.set("ixn_per_s", rate.median, spread(rate, "1/s"))
	n := float64(p.fixed.attempted)
	rep.set("shared_rt_per_ixn", ratio(p.counted.sharedRT, n), fmt.Sprintf("total over the first %d rounds", p.countedRounds))
	rep.set("shared_bytes_per_ixn", ratio(p.counted.sharedBytes, n), fmt.Sprintf("total over the first %d rounds", p.countedRounds))
	rep.set("ok_ixn_ratio", ratio(float64(p.total.ok), float64(p.total.attempted)), fmt.Sprintf("%d of %d, every round", p.total.ok, p.total.attempted))
	rep.set("live_heap_mb", p.heapMB, "after two GCs, deployment still up")
	layers := newReport(out, statsLayer)
	printStatsLayer(layers, p)
	if layers.err != nil {
		return nil, layers.err
	}
	return rep.finish(p.total.attempted, p.total.failed())
}

// printStatsLayer reports the per-layer metrics that are deltas of the
// layers' own counters over the counted rounds of an untraced phase.
func printStatsLayer(rep *report, p *phase) {
	c, n := p.counted, float64(p.fixed.attempted)
	rep.set("slicache.hit_ratio", ratio(c.hits, c.hits+c.misses), fmt.Sprintf("%.0f of %.0f lookups", c.hits, c.hits+c.misses))
	rep.set("slicache.finder_hit_ratio", ratio(c.finderHits, c.finderHits+c.finderMisses), fmt.Sprintf("%.0f of %.0f lookups", c.finderHits, c.finderHits+c.finderMisses))
	rep.set("slicache.miss_fetches_per_ixn", ratio(c.missFetches, n), "")
	rep.set("slicache.conflicts_per_ixn", ratio(c.conflicts, n), "retries, not failures")
	rep.set("slicache.invalidations_per_ixn", ratio(c.invalidations, n), "common store + finder cache")
	rep.set("slicache.entries", c.cacheEntries, fmt.Sprintf("after round %d", p.countedRounds))
	rep.set("slicache.bytes", c.cacheBytes, fmt.Sprintf("after round %d", p.countedRounds))
	rep.set("backend.commits_rejected_ratio", ratio(c.rejected, c.applied+c.rejected), fmt.Sprintf("%.0f of %.0f commits", c.rejected, c.applied+c.rejected))
	rep.set("sqlstore.optimistic_fail_ratio", ratio(c.optFail, c.optOK+c.optFail), fmt.Sprintf("%.0f of %.0f validations", c.optFail, c.optOK+c.optFail))
	rep.set("sqlstore.version_checks_per_ixn", ratio(c.versionChecks, n), "")
	rep.set("sqlstore.table_scans_per_ixn", ratio(c.tableScans, n), "")
	rep.set("sqlstore.lock_timeouts", c.lockTimeouts, "")
	rep.set("wire.shared_bytes_per_rt", ratio(c.sharedBytes, c.sharedRT), fmt.Sprintf("%.0f round trips on the proxied hop", c.sharedRT))
	rep.set("wire.retries", c.wireRetries, "clients on the proxied hop")
	rep.set("wire.errors", c.wireErrors, "clients on the proxied hop")
	rep.set("trade.fail_conflict", float64(p.total.fails.conflict), "every round")
	rep.set("trade.fail_exists", float64(p.total.fails.exists), "every round")
	rep.set("trade.fail_transport", float64(p.total.fails.transport), "every round")
	rep.set("trade.fail_other", float64(p.total.fails.other), "every round")
	rep.set("proc.allocs_per_ixn", ratio(c.mallocs, n), "whole process, instrument included")
	rep.set("proc.alloc_bytes_per_ixn", ratio(c.allocBytes, n), "")
	rep.set("proc.cpu_ms_per_ixn", ratio(c.cpuMs, n), "getrusage; includes the proxy's busy-yield")
	rep.set("proc.gc_pause_ms_per_kixn", ratio(c.gcPauseMs, n/1000), "")
	rep.set("proc.goroutines_peak", float64(p.goroutinesPeak), "sampled between sessions")
}

// perLayerRun is -trace 1: one untraced round for the counter deltas and
// the tracing-overhead base, one traced round of the same step stream,
// and the layer ladder. One round each, because on the slowest workload a
// round is a third of the default -seconds and the ladder takes the rest.
func perLayerRun(ctx context.Context, w workload, o options, out io.Writer) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	plain, err := runPhase(ctx, w, o.seed, 0, 1, time.Time{})
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(ctx, w, o.seed, 0, 1, time.Now())
	if err != nil {
		return nil, err
	}
	p, tp, tr := plain.phase, traced.phase, traced.trace
	fmt.Fprintf(out, "workload %s seed %d: untraced %d round, %d interactions; traced 1 round, %d interactions, %d spans (%d outside any interaction), least edge self time %.3f us\n",
		w.name, o.seed, len(p.rounds), p.total.attempted, tp.total.attempted, len(tr.records), tr.orphans, float64(tr.minSelfNs)/1e3)

	// Oracle (d): where the edge boundary is the proxied hop, the traced
	// round's edge calls are the untraced round's round trips.
	untracedRT := ratio(float64(p.firstRoundRT), float64(p.firstRoundIxn))
	if w.arch != archRAS && w.edges == 1 {
		if math.Abs(tr.edgeCalls-untracedRT) > 0.01*untracedRT {
			return nil, fmt.Errorf("oracle: traced run made %.4f edge calls per interaction, untraced run %.4f round trips", tr.edgeCalls, untracedRT)
		}
	}

	rep := newReport(out, perLayer())
	rep.set("appserver.ixn_ms", tr.ixnMs, "mean root span")
	rep.set("appserver.edge_self_ms_per_ixn", tr.edgeSelfMs, "root - edge spans - 2d when the proxy is on the client hop")
	rep.set("appserver.page_bytes", ratio(float64(tp.total.pageBytes), float64(tp.total.ok)), "")
	rep.set("dbwire.edge_calls_per_ixn", tr.edgeCalls, fmt.Sprintf("untraced round one: %.4f round trips", untracedRT))
	rep.set("dbwire.edge_call_p50_ms", tr.edgeCallP50Ms, "")
	rep.set("dbwire.edge_overhead_ms_per_ixn", tr.edgeOverheadMs, "edge spans - next-inner spans - 2d per call when the proxy is on this hop")
	rep.set("backend.db_calls_per_ixn", tr.backendDBCalls, "ES/RBES only")
	rep.set("backend.lan_overhead_ms_per_ixn", tr.backendLanOverhead, "the hop into the database: backend spans - db spans on ES/RBES, the edge's own hop elsewhere")
	rep.set("sqlstore.calls_per_ixn", tr.dbCalls, "")
	rep.set("sqlstore.busy_ms_per_ixn", tr.dbBusyMs, "")
	rep.set("sqlstore.call_p50_us", tr.dbCallP50Us, "")
	// Round one of the untraced phase sent the very steps the traced
	// round sent, from the same state.
	untracedP50 := p.rounds[0].p50
	rep.set("trace.overhead_ratio", tr.p50Ms/untracedP50-1, fmt.Sprintf("traced p50 %.4f ms over untraced %.4f ms, round one of each", tr.p50Ms, untracedP50))
	printStatsLayer(rep, p)

	ladder, err := runLadder(ctx, budget*3/10)
	if err != nil {
		return nil, err
	}
	for _, d := range ladderLayer() {
		if v, ok := ladder[d.name]; ok {
			rep.set(d.name, v, "")
		}
	}
	// The conservation remainder: how much of the measured zero-delay
	// ES/RBES interaction the isolated rungs do not add up to.
	unattributed := 0.0
	if w.arch == archRBES && w.delay == 0 && w.edges == 1 {
		meanNs := p.over(func(r roundStats) float64 { return r.mean }).median * 1e6
		rungsNs := ladder["appserver.request_rt_ns"] + tr.edgeCalls*(ladder["backend.apply_rt_ns"]+ladder["latency.forward_rt_ns"])
		unattributed = (meanNs - rungsNs) / meanNs
	}
	rep.set("ladder.rbes_lan_unattributed_ratio", unattributed, "zero-delay one-client ES/RBES only; reported, not gated")

	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, tr.records); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return rep.finish(p.total.attempted+tp.total.attempted, p.total.failed()+tp.total.failed())
}
