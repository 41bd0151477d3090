package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/stats"
	"edgeejb/internal/trade"
)

// Pair is one (architecture, algorithm) evaluation cell.
type Pair struct {
	Arch Architecture
	Algo Algorithm
}

// String renders the cell name.
func (p Pair) String() string { return p.Arch.String() + " / " + p.Algo.String() }

// AllPairs lists every cell the paper evaluates: three algorithms under
// ES/RDB and Clients/RAS, and cached EJBs under ES/RBES (the only
// algorithm that architecture admits).
func AllPairs() []Pair {
	return []Pair{
		{ESRDB, AlgCachedEJB},
		{ESRDB, AlgJDBC},
		{ESRDB, AlgVanillaEJB},
		{ESRBES, AlgCachedEJB},
		{ClientsRAS, AlgCachedEJB},
		{ClientsRAS, AlgJDBC},
		{ClientsRAS, AlgVanillaEJB},
	}
}

// EvalConfig sizes a full evaluation.
type EvalConfig struct {
	Run      RunOptions
	Populate trade.PopulateConfig
	// Protocol is Options.Protocol for every cell (tradebench's -batch
	// and -finder-cache flags).
	Protocol deploy.Protocol
}

// Evaluation holds every sweep needed to regenerate Figures 6–8 and
// Table 2.
type Evaluation struct {
	Sweeps map[Pair]Sweep
	Config EvalConfig
}

// RunEvaluation measures every (architecture, algorithm) cell. logf, if
// non-nil, receives progress lines.
func RunEvaluation(ctx context.Context, cfg EvalConfig, logf func(format string, args ...any)) (*Evaluation, error) {
	eval := &Evaluation{
		Sweeps: make(map[Pair]Sweep),
		Config: cfg,
	}
	for _, pair := range AllPairs() {
		if logf != nil {
			logf("running %s (delays %v, %d sessions/point)...",
				pair, cfg.Run.Delays, cfg.Run.Sessions)
		}
		start := time.Now()
		sweep, err := RunSweep(ctx, Options{
			Arch:     pair.Arch,
			Algo:     pair.Algo,
			Populate: cfg.Populate,
			Protocol: cfg.Protocol,
		}, cfg.Run)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", pair, err)
		}
		eval.Sweeps[pair] = sweep
		if logf != nil {
			logf("  %s: sensitivity %.1f (R²=%.3f) in %v",
				pair, sweep.Sensitivity(), sweep.Fit.R2, time.Since(start).Round(time.Millisecond))
		}
	}
	return eval, nil
}

// Fig6Series returns the three series of Figure 6: the classic
// datacenter architecture, the cache-enabled split-servers edge
// architecture, and the best algorithm of the shared-database edge
// architecture (JDBC, per §4.4).
func (e *Evaluation) Fig6Series() []Sweep {
	return []Sweep{
		e.Sweeps[Pair{ClientsRAS, AlgJDBC}],
		e.Sweeps[Pair{ESRBES, AlgCachedEJB}],
		e.Sweeps[Pair{ESRDB, AlgJDBC}],
	}
}

// Fig7Series returns the three ES/RDB series of Figure 7.
func (e *Evaluation) Fig7Series() []Sweep {
	return []Sweep{
		e.Sweeps[Pair{ESRDB, AlgCachedEJB}],
		e.Sweeps[Pair{ESRDB, AlgJDBC}],
		e.Sweeps[Pair{ESRDB, AlgVanillaEJB}],
	}
}

// Table2Cell is one sensitivity entry of Table 2.
type Table2Cell struct {
	Pair        Pair
	Sensitivity float64
	R2          float64
	// NA marks the cells the paper leaves as N/A (non-cached algorithms
	// under ES/RBES).
	NA bool
}

// Table2 assembles the sensitivity table. Row order matches the paper:
// algorithms × {ES/RDB, ES/RBES, Clients/RAS}.
func (e *Evaluation) Table2() []Table2Cell {
	algos := []Algorithm{AlgCachedEJB, AlgJDBC, AlgVanillaEJB}
	archs := []Architecture{ESRDB, ESRBES, ClientsRAS}
	var cells []Table2Cell
	for _, algo := range algos {
		for _, arch := range archs {
			pair := Pair{arch, algo}
			if arch == ESRBES && algo != AlgCachedEJB {
				cells = append(cells, Table2Cell{Pair: pair, NA: true})
				continue
			}
			s, ok := e.Sweeps[pair]
			if !ok {
				cells = append(cells, Table2Cell{Pair: pair, NA: true})
				continue
			}
			cells = append(cells, Table2Cell{
				Pair:        pair,
				Sensitivity: s.Sensitivity(),
				R2:          s.Fit.R2,
			})
		}
	}
	return cells
}

// BandwidthRow is one bar of Figure 8.
type BandwidthRow struct {
	Pair Pair
	// BytesPerInteraction is traffic on the shared (high-latency) path
	// per client interaction, averaged over the sweep's points.
	BytesPerInteraction float64
	// RoundTripsPerInteraction is the number of wire round trips on the
	// shared path per client interaction, averaged the same way.
	RoundTripsPerInteraction float64
}

// Fig8Rows reports shared-path bandwidth for the three Figure 6
// configurations.
func (e *Evaluation) Fig8Rows() []BandwidthRow {
	series := []Pair{
		{ClientsRAS, AlgJDBC},
		{ESRBES, AlgCachedEJB},
		{ESRDB, AlgJDBC},
	}
	rows := make([]BandwidthRow, 0, len(series))
	for _, pair := range series {
		s, ok := e.Sweeps[pair]
		if !ok {
			continue
		}
		var bytesVals, rtVals []float64
		for _, p := range s.Points {
			bytesVals = append(bytesVals, p.SharedBytesPerInteraction)
			rtVals = append(rtVals, p.SharedRoundTripsPerInteraction)
		}
		rows = append(rows, BandwidthRow{
			Pair:                     pair,
			BytesPerInteraction:      stats.Mean(bytesVals),
			RoundTripsPerInteraction: stats.Mean(rtVals),
		})
	}
	return rows
}

// WriteFig6 renders Figure 6 as a text table.
func (e *Evaluation) WriteFig6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: Comparison of High-Latency Architectures")
	fmt.Fprintln(w, "(mean client-interaction latency in ms vs one-way delay in ms)")
	writeSweepTable(w, e.Fig6Series())
}

// WriteFig7 renders Figure 7 as a text table.
func (e *Evaluation) WriteFig7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: Edge-Servers Accessing Remote Database (ES/RDB)")
	fmt.Fprintln(w, "(mean client-interaction latency in ms vs one-way delay in ms)")
	writeSweepTable(w, e.Fig7Series())
}

// WriteTable2 renders Table 2.
func (e *Evaluation) WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Algorithm Sensitivity to Communication Latency")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "Algorithm", "ES/RDB", "ES/RBES", "Clients/RAS")
	cells := e.Table2()
	byAlgo := make(map[Algorithm]map[Architecture]Table2Cell)
	for _, c := range cells {
		if byAlgo[c.Pair.Algo] == nil {
			byAlgo[c.Pair.Algo] = make(map[Architecture]Table2Cell)
		}
		byAlgo[c.Pair.Algo][c.Pair.Arch] = c
	}
	for _, algo := range []Algorithm{AlgCachedEJB, AlgJDBC, AlgVanillaEJB} {
		row := byAlgo[algo]
		fmt.Fprintf(w, "%-14s %12s %12s %12s\n", algo,
			formatCell(row[ESRDB]), formatCell(row[ESRBES]), formatCell(row[ClientsRAS]))
	}
}

// WriteFig8 renders Figure 8.
func (e *Evaluation) WriteFig8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Bandwidth (bytes on the shared path per client interaction)")
	for _, row := range e.Fig8Rows() {
		fmt.Fprintf(w, "%-28s %8.0f bytes/interaction %8.1f wire-RTs/interaction\n",
			row.Pair, row.BytesPerInteraction, row.RoundTripsPerInteraction)
	}
}

// WriteAll renders every figure and table.
func (e *Evaluation) WriteAll(w io.Writer) {
	e.WriteFig6(w)
	fmt.Fprintln(w)
	e.WriteFig7(w)
	fmt.Fprintln(w)
	e.WriteTable2(w)
	fmt.Fprintln(w)
	e.WriteFig8(w)
}

func formatCell(c Table2Cell) string {
	if c.NA || math.IsNaN(c.Sensitivity) {
		return "N/A"
	}
	return fmt.Sprintf("%.1f", c.Sensitivity)
}

func writeSweepTable(w io.Writer, sweeps []Sweep) {
	if len(sweeps) == 0 {
		return
	}
	header := fmt.Sprintf("%-14s", "delay(ms)")
	for _, s := range sweeps {
		header += fmt.Sprintf(" %24s", s.Arch.String()+" "+s.Algo.String())
	}
	fmt.Fprintln(w, header)
	for i := range sweeps[0].Points {
		line := fmt.Sprintf("%-14.1f", sweeps[0].Points[i].OneWayDelayMs)
		for _, s := range sweeps {
			if i < len(s.Points) {
				line += fmt.Sprintf(" %24.2f", s.Points[i].MeanLatencyMs)
			} else {
				line += fmt.Sprintf(" %24s", "-")
			}
		}
		fmt.Fprintln(w, line)
	}
	foot := fmt.Sprintf("%-14s", "sensitivity")
	for _, s := range sweeps {
		if math.IsNaN(s.Sensitivity()) {
			foot += fmt.Sprintf(" %17s %7s", "n/a", "")
		} else {
			foot += fmt.Sprintf(" %17.1f (R²%.2f)", s.Sensitivity(), s.Fit.R2)
		}
	}
	fmt.Fprintln(w, foot)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
}

// WriteLatencyBreakdown renders where one sweep's client latency is
// spent, derived from the trace spans collected at each delay point:
// each span's mean duration (ms) and how many of that span a client
// interaction caused on average. Reading down a column shows which
// hops absorb the injected delay — a cache hit leaves slicache.miss_fetch
// flat while vanilla EJBs drag sqlstore.apply up with every ms.
func WriteLatencyBreakdown(w io.Writer, s Sweep) {
	names := make(map[string]struct{})
	for _, p := range s.Points {
		for n := range p.Spans {
			names[n] = struct{}{}
		}
	}
	if len(names) == 0 {
		return
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "Latency breakdown: %s %s\n", s.Arch, s.Algo)
	fmt.Fprintln(w, "(per delay point: mean span duration in ms × spans per interaction)")
	header := fmt.Sprintf("%-10s", "delay(ms)")
	for _, n := range sorted {
		header += fmt.Sprintf(" %22s", n)
	}
	fmt.Fprintln(w, header)
	for _, p := range s.Points {
		line := fmt.Sprintf("%-10.1f", p.OneWayDelayMs)
		for _, n := range sorted {
			h, ok := p.Spans[n]
			if !ok || h.Count == 0 || p.Load.Interactions == 0 {
				line += fmt.Sprintf(" %22s", "-")
				continue
			}
			meanMs := float64(h.Mean()) / float64(time.Millisecond)
			perIxn := float64(h.Count) / float64(p.Load.Interactions)
			line += fmt.Sprintf(" %14.2f ×%6.2f", meanMs, perIxn)
		}
		fmt.Fprintln(w, line)
	}
}

// WriteTable1 renders Table 1 (the Trade runtime and database usage
// characteristics) from the implementation itself.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Trade Runtime and Database Usage Characteristics")
	fmt.Fprintf(w, "%-14s %-24s %-32s\n", "Trade Action", "CMP Bean Operation", "DB Activity (C/R/U/D)")
	for _, a := range trade.Actions {
		fmt.Fprintf(w, "%-14s %-24s %-32s\n", a, a.CMPOperation(), a.DBActivity())
	}
}
