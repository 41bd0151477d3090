// Command tradebench regenerates the paper's evaluation: Table 1,
// Figures 6-8, and Table 2, by assembling each architecture on loopback
// TCP with the delay proxy on its high-latency path and driving the
// Trade workload through it.
//
// Usage:
//
//	tradebench -all                     # everything (several minutes)
//	tradebench -fig6 -fig8              # selected experiments
//	tradebench -table1                  # no measurement needed
//	tradebench -all -sessions 50 -delays 0ms,2ms,4ms,8ms
//	tradebench -fig6 -out-dir runs      # + per-run artifact directory:
//	                                    # Perfetto trace, waterfalls,
//	                                    # registry diffs, MANIFEST.json
//	tradebench -shards 1,2,4            # shard-scaling the datacenter tier
//	tradebench -fig6 -debug-addr :6060  # + /metrics and /debug/pprof while
//	                                    # running, for go tool pprof
//
// Latency sensitivities (Table 2 slopes) are delay-scale-invariant, so
// the default sweep uses small delays to keep wall-clock reasonable;
// pass larger -delays for paper-scale runs.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/harness"
	"edgeejb/internal/obs"
	"edgeejb/internal/obs/prof"
	"edgeejb/internal/trade"
)

// What an -out-dir run collects, beyond the phases' own reports.
const (
	// sampleEvery is the runtime telemetry's sampling interval.
	sampleEvery = 250 * time.Millisecond
	// artifactRing is the span and the forensic-event ring capacity
	// while collecting: wide enough that trace assembly sees whole
	// interactions, not the tail of the run.
	artifactRing = 65536
	// waterfalls is how many of the slowest and of the median traces
	// waterfalls.txt renders.
	waterfalls = 3
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tradebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tradebench", flag.ContinueOnError)
	var (
		all     = fs.Bool("all", false, "run every experiment")
		table1  = fs.Bool("table1", false, "print Table 1 (workload characteristics)")
		fig6    = fs.Bool("fig6", false, "reproduce Figure 6 (architecture comparison)")
		fig7    = fs.Bool("fig7", false, "reproduce Figure 7 (ES/RDB algorithms)")
		fig8    = fs.Bool("fig8", false, "reproduce Figure 8 (bandwidth)")
		table2  = fs.Bool("table2", false, "reproduce Table 2 (latency sensitivity)")
		thru    = fs.Bool("throughput", false, "extension: throughput under concurrent clients")
		shards  = fs.String("shards", "", "extension: comma-separated shard counts to sweep (e.g. 1,2,4); each count builds a datacenter tier of that many backend/database pairs behind key-routing edges")
		actions = fs.Bool("actions", false, "print per-action latency breakdown for the Figure 6 configurations")
		faults  = fs.Bool("faults", false, "extension: resilience under fault injection on the Figure 6 configurations")
		csvDir  = fs.String("csv", "", "also export figures/tables as CSV files into this directory")

		metrics   = fs.Bool("metrics", false, "print per-phase process metrics and span-derived latency breakdowns")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while running")

		outDir = fs.String("out-dir", "", "collect per-run artifacts (Perfetto trace, waterfalls, registry diffs, reports, MANIFEST.json) under a timestamped directory here")

		faultSessions = fs.Int("fault-sessions", 80, "sessions per pass in the fault experiment")

		shardClients = fs.Int("shard-clients", 24, "concurrent clients per shard-scaling point (with -shards)")

		finderCache = fs.Bool("finder-cache", true, "cache finder (query) results at the edge, each evicted by a committed write that overlaps its query or its rows; -finder-cache=false reproduces the uncached behavior")

		batch = fs.Bool("batch", true, "ship the independent statements of one exchange as a single statement batch (JDBC, BMP and the ES/RDB cached-EJB commit); -batch=false pays one round trip per statement, the paper's measured behaviour")

		sessions = fs.Int("sessions", 25, "measured sessions per delay point of the delay sweep behind -fig6, -fig7, -fig8, -table2 and -actions (paper: 300); -throughput, -shards and -faults use their own")
		warmup   = fs.Int("warmup", 8, "warmup sessions before the delay sweep behind -fig6, -fig7, -fig8, -table2 and -actions (paper: 400); -throughput, -shards and -faults use their own")
		batches  = fs.Int("batches", 20, "latency batches per delay point of the delay sweep behind -fig6, -fig7, -fig8, -table2 and -actions (paper: 20)")
		delays   = fs.String("delays", "0ms,1ms,2ms,4ms", "comma-separated one-way delays of the delay sweep behind -fig6, -fig7, -fig8, -table2 and -actions; -faults runs at the first, -throughput at 2ms, -shards at 0ms")
		mix      = fs.String("mix", "", "override the session action mix as name=weight pairs, e.g. portfolio=40,quote=35,buy=3 (names: home, account, account-update, portfolio, quote, buy, sell, register; empty = the default browse-heavy mix)")
		users    = fs.Int("users", 50, "registered users in the Trade database")
		symbols  = fs.Int("symbols", 100, "quoted securities in the Trade database")
		seed     = fs.Int64("seed", 42, "workload random seed")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shardCounts, err := parseShardCounts(*shards)
	if err != nil {
		return err
	}
	if !*all && !*table1 && !*fig6 && !*fig7 && !*fig8 && !*table2 && !*thru && !*actions && !*faults && len(shardCounts) == 0 {
		fs.Usage()
		return fmt.Errorf("select at least one experiment (-all, -table1, -fig6, -fig7, -fig8, -table2, -throughput, -actions, -faults, -shards)")
	}
	if *all {
		*table1, *fig6, *fig7, *fig8, *table2, *thru, *actions, *faults = true, true, true, true, true, true, true, true
	}

	if *table1 {
		harness.WriteTable1(os.Stdout)
		fmt.Println()
	}

	delayList, err := parseDelays(*delays)
	if err != nil {
		return err
	}
	mixWeights, err := parseMix(*mix)
	if err != nil {
		return err
	}
	// Every experiment builds its topologies from opts, and all but the
	// fault experiment drive wl; only the delay sweep takes its scale
	// from the flags.
	opts := harness.Options{
		Populate: trade.PopulateConfig{
			Seed:            *seed,
			Users:           *users,
			Symbols:         *symbols,
			HoldingsPerUser: trade.DefaultPopulate().HoldingsPerUser,
		},
		Protocol: deploy.Protocol{Batch: *batch, FinderCache: *finderCache},
	}
	wl := trade.GeneratorConfig{Seed: *seed, Users: *users, Symbols: *symbols, Mix: mixWeights}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	if *quiet {
		logf = nil
	}

	if *debugAddr != "" {
		dbg, err := obs.StartDebug(*debugAddr, obs.DebugOptions{})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	// With -out-dir, every phase feeds a per-run artifact directory:
	// a widened span ring (so trace assembly sees whole interactions,
	// not the tail of the run), per-phase registry diffs, and — after
	// the measured phases — the assembled cross-tier traces.
	var art *harness.Artifacts
	if *outDir != "" {
		obs.DefaultSpans = obs.NewSpanLog(artifactRing)
		obs.DefaultEvents = obs.NewEventLog(artifactRing)
		var err error
		art, err = harness.NewArtifacts(*outDir, args)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "collecting run artifacts in %s\n", art.Dir)
	}

	// The runtime telemetry (runtime.* metric families) rides every
	// export the registry already has — /metrics, per-phase diffs — and
	// feeds summary.json's resource.* metrics.
	var rt *prof.Runtime
	if *outDir != "" || *metrics || *debugAddr != "" {
		rt = prof.StartRuntime(obs.Default, sampleEvery)
		defer rt.Stop()
	}

	// runStart anchors the whole-run counter diff summary.json derives
	// its ratios from (taken after any -out-dir ring swap so the rings
	// and registry cover the same window).
	runStart := obs.Default.Snapshot()

	// finderPhases accumulates one finder-cache accounting row per
	// experiment phase, for the -metrics hit-ratio column and the
	// finder_cache.csv artifact.
	var finderPhases []finderPhaseRow

	// thruCurves and shardPoints capture the extension sweeps for
	// summary.json.
	var (
		thruCurves  []harness.Sweep
		shardPoints []harness.ShardScalingPoint
	)

	// phase runs one experiment phase and, with -metrics, prints the
	// process metrics it accumulated (a diff, so phases don't bleed into
	// each other). With -out-dir the diff also lands in the artifact
	// directory.
	phase := func(name string, f func() error) error {
		if rt != nil {
			rt.Update()
		}
		before := obs.Default.Snapshot()
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		// Fold the phase's runtime activity in before diffing, so the
		// registry diff carries its runtime.* tallies.
		if rt != nil {
			rt.Update()
		}
		diff := obs.Default.Diff(before)
		finderPhases = append(finderPhases, finderPhaseRowFrom(name, diff))
		if *metrics {
			fmt.Printf("\nMetrics accumulated by the %s phase:\n", name)
			if err := diff.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if art != nil {
			art.RecordPhase(name, start, time.Now())
			if err := art.WriteRegistryDiff(name, diff); err != nil {
				return err
			}
		}
		return nil
	}

	if *faults {
		fopts := opts
		fopts.OneWayDelay = delayList[0]
		if err := phase("fault", func() error { return runFaults(fopts, *faultSessions, logf) }); err != nil {
			return err
		}
		fmt.Println()
	}

	// finishArtifacts assembles the run's traces and finalizes the
	// artifact directory; it runs at whichever exit the run takes.
	finishArtifacts := func(eval *harness.Evaluation) error {
		if *metrics && len(finderPhases) > 0 {
			fmt.Println()
			writeFinderTable(os.Stdout, finderPhases)
		}
		if art == nil {
			return nil
		}
		// The whole-run diff is cut here, at the final fold (-out-dir
		// always runs the runtime sampler), not after the trace assembly
		// below: that allocates half as much again as the measured run,
		// and the background sampler folds it in or not depending on
		// where its next tick lands, which would give
		// resource.allocs_per_interaction two values for one build. The
		// GC cycle first flushes every P's allocation cache into the
		// runtime's counters; objects in spans still cached are otherwise
		// not yet counted, and the gated count reads 1% low and three
		// times as spread (281.1-282.5 against 284.0-284.5 over five runs).
		runtime.GC()
		rt.Update()
		runDiff := obs.Default.Diff(runStart)
		traces := obs.Assemble(obs.DefaultSpans.Recent(0))
		if err := art.WriteTraces(traces, waterfalls, obs.DefaultSpans.Dropped()); err != nil {
			return err
		}
		if err := art.WriteSummary(harness.BuildSummary(harness.SummaryInput{
			Args:       args,
			Eval:       eval,
			Throughput: thruCurves,
			Shards:     shardPoints,
			Counters:   runDiff.Counters,
			Runtime:    &runDiff,
		})); err != nil {
			return err
		}
		if err := art.WriteEvents(obs.DefaultEvents.Since(0)); err != nil {
			return err
		}
		if err := art.WriteFile("finder_cache.csv", "csv",
			"per-phase finder-cache hits, misses, invalidations, and hit ratio", "",
			func(w io.Writer) error { return writeFinderCSV(w, finderPhases) }); err != nil {
			return err
		}
		if eval != nil {
			if err := art.WriteEvalReports(eval); err != nil {
				return err
			}
		}
		if err := art.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "run artifacts in %s (%d traces assembled)\n", art.Dir, len(traces))
		return nil
	}

	// The delay sweep runs only for what reads it: the figures, Table 2,
	// -actions and -csv. -throughput, -faults and -shards measure on
	// topologies of their own.
	var eval *harness.Evaluation
	if *fig6 || *fig7 || *fig8 || *table2 || *actions || *csvDir != "" {
		if err := phase("evaluation", func() error {
			var err error
			eval, err = harness.RunEvaluation(context.Background(), opts, harness.Scale{
				Workload: wl,
				Warmup:   *warmup,
				Sessions: *sessions,
				Batches:  *batches,
			}, delayList, logf)
			return err
		}); err != nil {
			return err
		}
		if *metrics {
			fmt.Println()
		}

		if *fig6 {
			eval.WriteFig6(os.Stdout)
			fmt.Println()
			if *metrics {
				for _, s := range eval.Fig6Series() {
					harness.WriteLatencyBreakdown(os.Stdout, s)
					fmt.Println()
					if err := harness.WriteForensics(os.Stdout, s.Pair, s.Points); err != nil {
						return err
					}
				}
			}
		}
		if *fig7 {
			eval.WriteFig7(os.Stdout)
			fmt.Println()
		}
		if *table2 {
			eval.WriteTable2(os.Stdout)
			fmt.Println()
		}
		if *fig8 {
			eval.WriteFig8(os.Stdout)
		}
		if *metrics {
			fmt.Println()
			harness.WriteWireOps(os.Stdout, eval.Fig6Series())
		}
		if *actions {
			fmt.Println()
			harness.WriteActionBreakdown(os.Stdout, eval.Fig6Series())
		}
		if *csvDir != "" {
			if err := eval.WriteCSV(*csvDir); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote CSV files to %s\n", *csvDir)
		}
	}
	if *thru {
		fmt.Println()
		if err := phase("throughput", func() error {
			var err error
			thruCurves, err = runThroughput(opts, wl, *metrics, logf)
			return err
		}); err != nil {
			return err
		}
	}
	if len(shardCounts) > 0 {
		fmt.Println()
		if err := phase("shards", func() error {
			var err error
			shardPoints, err = runShardSweep(shardCounts, *shardClients, opts, wl, art, logf)
			return err
		}); err != nil {
			return err
		}
	}
	return finishArtifacts(eval)
}

// runShardSweep measures the shard-scaling extension and, when an
// artifact directory is active, exports the curve as shards.csv. The
// points also feed summary.json. Each point runs at 0 ms with 4 warm-up
// and 4 measured sessions per client, and every shard's store serializes
// 2 ms per commit set: enough clients then saturate one shard's ~500
// commit sets/second and leave headroom for four shards.
func runShardSweep(counts []int, clients int, opts harness.Options, wl trade.GeneratorConfig, art *harness.Artifacts, logf func(string, ...any)) ([]harness.ShardScalingPoint, error) {
	opts.DBCommitService = 2 * time.Millisecond
	scale := harness.Scale{Workload: wl, Warmup: 4, Sessions: 4}
	points, err := harness.RunShardScaling(context.Background(), opts, scale, counts, clients, logf)
	if err != nil {
		return nil, err
	}
	harness.WriteShardScaling(os.Stdout, points)
	if art != nil {
		if err := art.WriteFile("shards.csv", "csv",
			"shard-scaling sweep: per-shard commit balance and per-point throughput, 2PC fraction, and commit-path split", "",
			func(w io.Writer) error { return harness.WriteShardsCSV(w, points) }); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// parseShardCounts parses the -shards list; empty means the sweep is
// off.
func parseShardCounts(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts given")
	}
	return out, nil
}

// runFaults measures resilience under fault injection for the three
// Figure 6 configurations, then verifies the experiment left no hung
// goroutines behind (the chaos run's leak check). Each pair warms with
// 20 sessions, then runs a clean and a faulted pass of sessions each
// under harness.DefaultFaultPlan(1), whose seed also seeds the workload.
func runFaults(opts harness.Options, sessions int, logf func(string, ...any)) error {
	before := runtime.NumGoroutine()
	plan := harness.DefaultFaultPlan(1)
	scale := harness.Scale{
		Workload: trade.GeneratorConfig{Seed: plan.Seed, Users: opts.Populate.Users, Symbols: opts.Populate.Symbols},
		Warmup:   20,
		Sessions: sessions,
	}
	reports, err := harness.RunFaultExperiment(context.Background(), opts, scale, harness.Fig6Pairs(), plan, logf)
	if err != nil {
		return err
	}
	harness.WriteFaultReport(os.Stdout, reports)

	var succeeded, attempted int
	for _, r := range reports {
		succeeded += r.Faulted.Load.Completed
		attempted += r.Faulted.Load.Completed + r.Faulted.Load.Abandoned
	}
	if attempted > 0 {
		fmt.Printf("overall: %d/%d faulted sessions succeeded (%.1f%%)\n",
			succeeded, attempted, 100*float64(succeeded)/float64(attempted))
	}

	// Every topology is closed; the goroutine count must settle back.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		return fmt.Errorf("fault experiment leaked goroutines: %d before, %d after", before, n)
	}
	fmt.Println("goroutine check: clean (no hung goroutines)")
	return nil
}

// runThroughput measures the concurrency extension for the three
// Figure 6 configurations and returns the curves for summary.json. Each
// runs at 2 ms, warms with 4 sessions, and measures 6 sessions per
// client at 1, 2, 4 and 8 clients. With forensics enabled it also
// prints the per-point conflict matrices — the concurrent run is the one
// workload in the suite where optimistic validation actually loses races.
func runThroughput(opts harness.Options, wl trade.GeneratorConfig, forensics bool, logf func(string, ...any)) ([]harness.Sweep, error) {
	counts := []int{1, 2, 4, 8}
	scale := harness.Scale{Workload: wl, Warmup: 4, Sessions: 6}
	var curves []harness.Sweep
	for _, pair := range harness.Fig6Pairs() {
		if logf != nil {
			logf("running throughput %s (clients %v)...", pair, counts)
		}
		opts.Arch, opts.Algo = pair.Arch, pair.Algo
		points, err := harness.Run(context.Background(), opts, scale, harness.ClientSteps(2*time.Millisecond, counts))
		if err != nil {
			return nil, err
		}
		curves = append(curves, harness.Sweep{Pair: pair, Points: points})
	}
	harness.WriteThroughput(os.Stdout, curves)
	if forensics {
		fmt.Println()
		for _, c := range curves {
			if err := harness.WriteForensics(os.Stdout, c.Pair, c.Points); err != nil {
				return nil, err
			}
		}
	}
	return curves, nil
}

// finderPhaseRow is one experiment phase's finder-cache accounting,
// extracted from the phase's registry diff.
type finderPhaseRow struct {
	Phase         string
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

func finderPhaseRowFrom(name string, diff obs.Snapshot) finderPhaseRow {
	return finderPhaseRow{
		Phase:         name,
		Hits:          diff.Counters["slicache.finder_hits"],
		Misses:        diff.Counters["slicache.finder_misses"],
		Invalidations: diff.Counters["slicache.finder_invalidations"],
	}
}

// HitRatio is hits/(hits+misses); NaN when the phase ran no finders
// (or the cache was disabled, which records neither hits nor misses).
func (r finderPhaseRow) HitRatio() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return math.NaN()
	}
	return float64(r.Hits) / float64(total)
}

// writeFinderTable renders the per-phase finder-cache summary printed
// with -metrics.
func writeFinderTable(w io.Writer, rows []finderPhaseRow) {
	fmt.Fprintln(w, "Finder cache by phase:")
	fmt.Fprintf(w, "%-14s %10s %10s %14s %10s\n", "phase", "hits", "misses", "invalidations", "hit-ratio")
	for _, r := range rows {
		ratio := "n/a"
		if hr := r.HitRatio(); !math.IsNaN(hr) {
			ratio = fmt.Sprintf("%.1f%%", 100*hr)
		}
		fmt.Fprintf(w, "%-14s %10d %10d %14d %10s\n", r.Phase, r.Hits, r.Misses, r.Invalidations, ratio)
	}
}

// writeFinderCSV exports the same rows as the finder_cache.csv
// artifact (schema: phase, hits, misses, invalidations, hit_ratio).
func writeFinderCSV(w io.Writer, rows []finderPhaseRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "hits", "misses", "invalidations", "hit_ratio"}); err != nil {
		return err
	}
	for _, r := range rows {
		ratio := "n/a"
		if hr := r.HitRatio(); !math.IsNaN(hr) {
			ratio = strconv.FormatFloat(hr, 'f', 4, 64)
		}
		rec := []string{
			r.Phase,
			strconv.FormatUint(r.Hits, 10),
			strconv.FormatUint(r.Misses, 10),
			strconv.FormatUint(r.Invalidations, 10),
			ratio,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// parseMix parses the -mix override: comma-separated name=weight pairs.
// An empty string keeps the zero Mix, which the generator replaces with
// trade.DefaultMix.
func parseMix(s string) (trade.Mix, error) {
	var m trade.Mix
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	fields := map[string]*int{
		"home":           &m.Home,
		"account":        &m.Account,
		"account-update": &m.AccountUpdate,
		"portfolio":      &m.Portfolio,
		"quote":          &m.Quote,
		"buy":            &m.Buy,
		"sell":           &m.Sell,
		"register":       &m.Register,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		dst, known := fields[strings.ToLower(strings.TrimSpace(name))]
		if !known {
			return m, fmt.Errorf("unknown mix action %q", name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		*dst = w
	}
	if total := m.Home + m.Account + m.AccountUpdate + m.Portfolio + m.Quote + m.Buy + m.Sell + m.Register; total == 0 {
		return m, fmt.Errorf("mix %q has zero total weight", s)
	}
	return m, nil
}

func parseDelays(s string) ([]time.Duration, error) {
	parts := strings.Split(s, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		d, err := time.ParseDuration(p)
		if err != nil {
			return nil, fmt.Errorf("bad delay %q: %w", p, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("negative delay %q", p)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no delays given")
	}
	return out, nil
}
