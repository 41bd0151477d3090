package harness

import (
	"fmt"
	"io"
	"sort"

	"edgeejb/internal/obs"
)

// WriteForensics renders one cell's transaction forensics: per point, a
// conflict matrix (interaction × bean type), the hottest conflicting
// keys, the per-bean cache hit ratios and the invalidations applied,
// all read from the pass's events and counter diff. The concurrent
// throughput passes are where the conflict matrix carries real weight:
// they race writers, so (op, bean) abort counts are non-trivial.
func WriteForensics(w io.Writer, cell Pair, points []Point) error {
	if _, err := fmt.Fprintf(w, "== forensics: %s ==\n", cell); err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "\n-- %s --\n", p.Label)
		if err := writeForensicsBlock(w, p.Events, p.Metrics.Counters); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeForensicsBlock renders one measurement's conflict matrix, hot
// keys, per-bean hit ratios, and invalidation summary from its event
// slice and counter diff.
func writeForensicsBlock(w io.Writer, events []obs.Event, counters map[string]uint64) error {
	// Conflict matrix: aborts by (interaction op, bean type).
	type cell struct{ op, bean string }
	matrix := make(map[cell]int)
	hotKeys := make(map[string]int)
	conflicts := 0
	for _, e := range events {
		if e.Type != obs.EventConflict {
			continue
		}
		conflicts++
		op := e.Op
		if op == "" {
			op = "(unknown)"
		}
		matrix[cell{op, e.Bean}]++
		hotKeys[e.Key]++
	}
	if conflicts == 0 {
		fmt.Fprintln(w, "conflicts: none")
	} else {
		fmt.Fprintf(w, "conflicts: %d\n", conflicts)
		cells := make([]cell, 0, len(matrix))
		for c := range matrix {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(i, j int) bool {
			if matrix[cells[i]] != matrix[cells[j]] {
				return matrix[cells[i]] > matrix[cells[j]]
			}
			if cells[i].op != cells[j].op {
				return cells[i].op < cells[j].op
			}
			return cells[i].bean < cells[j].bean
		})
		fmt.Fprintf(w, "  %-16s %-10s %s\n", "op", "bean", "aborts")
		for _, c := range cells {
			fmt.Fprintf(w, "  %-16s %-10s %d\n", c.op, c.bean, matrix[c])
		}
		fmt.Fprintln(w, "  hot keys:")
		for _, kc := range topN(hotKeys, 5) {
			fmt.Fprintf(w, "    %-24s %d\n", kc.k, kc.n)
		}
	}

	// Per-bean hit ratios from the labeled counter diffs.
	hits, misses := labeledByValue(counters, "slicache.hits"), labeledByValue(counters, "slicache.misses")
	beans := make(map[string]struct{})
	for b := range hits {
		beans[b] = struct{}{}
	}
	for b := range misses {
		beans[b] = struct{}{}
	}
	if len(beans) > 0 {
		names := make([]string, 0, len(beans))
		for b := range beans {
			names = append(names, b)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "cache by bean:\n  %-10s %8s %8s %8s\n", "bean", "hits", "misses", "ratio")
		for _, b := range names {
			h, m := hits[b], misses[b]
			ratio := 0.0
			if h+m > 0 {
				ratio = float64(h) / float64(h+m)
			}
			fmt.Fprintf(w, "  %-10s %8d %8d %7.1f%%\n", b, h, m, 100*ratio)
		}
	}

	// Invalidation-propagation summary.
	invals, evicted := 0, 0
	for _, e := range events {
		if e.Type == obs.EventInvalidation {
			invals++
			evicted += e.Evicted
		}
	}
	if invals > 0 {
		fmt.Fprintf(w, "invalidations: %d notices applied, %d entries evicted\n", invals, evicted)
	}
	return nil
}

type keyCount struct {
	k string
	n int
}

// topN returns the n highest-count entries, ties broken by key.
func topN(counts map[string]int, n int) []keyCount {
	out := make([]keyCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, keyCount{k, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].k < out[j].k
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// labeledByValue extracts a labeled counter family's children from a
// counter map: {label value → count} for every metric named
// base{key=value}.
func labeledByValue(counters map[string]uint64, base string) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range counters {
		if b, _, value, ok := obs.SplitLabel(name); ok && b == base {
			out[value] += v
		}
	}
	return out
}

// WriteConflictsCSV exports conflict events, one row per abort. The
// header row is always written, so a conflict-free run yields a valid
// (if empty) CSV.
func WriteConflictsCSV(w io.Writer, events []obs.Event) error {
	if _, err := fmt.Fprintln(w, "t_unix_ms,op,bean,key,loser_trace,winner_trace,read_age_ms"); err != nil {
		return err
	}
	for _, e := range events {
		if e.Type != obs.EventConflict {
			continue
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%.3f\n",
			e.Time.UnixMilli(), e.Op, e.Bean, e.Key, e.Trace, e.OtherTrace,
			float64(e.Age.Microseconds())/1000); err != nil {
			return err
		}
	}
	return nil
}

// WriteInvalidationCSV exports invalidation events, one row per notice
// received at an edge. latency_ms is the push latency (origin commit to
// arrival); staleness_ms is the window closed when the notice actually
// evicted entries (zero otherwise).
func WriteInvalidationCSV(w io.Writer, events []obs.Event) error {
	if _, err := fmt.Fprintln(w, "t_unix_ms,origin_trace,keys,evicted,latency_ms,staleness_ms"); err != nil {
		return err
	}
	for _, e := range events {
		if e.Type != obs.EventInvalidation {
			continue
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.3f,%.3f\n",
			e.Time.UnixMilli(), e.OtherTrace, e.Keys, e.Evicted,
			float64(e.Latency.Microseconds())/1000,
			float64(e.Age.Microseconds())/1000); err != nil {
			return err
		}
	}
	return nil
}
