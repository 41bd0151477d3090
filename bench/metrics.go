package main

import "sort"

// metricDef names one metric. BENCHMARK.json lists exactly these; a
// test keeps the two in step.
type metricDef struct {
	name, unit string
	// better is "lower" unless said otherwise. bound applies to
	// end-to-end metrics only: the share of the parent's median by which
	// the metric may get worse before a change is a regression.
	better string
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// all of them, from the untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ixn_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ixn_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ixn_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "shared_rt_per_ixn", unit: "count", better: "lower", bound: 0.15},
	{name: "shared_bytes_per_ixn", unit: "B", better: "lower", bound: 0.25},
	{name: "ok_ixn_ratio", unit: "ratio", better: "higher", bound: 0.003},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.20},
}

// tracedLayer comes from the boundary spans of the traced round.
var tracedLayer = []metricDef{
	{name: "appserver.ixn_ms", unit: "ms"},
	{name: "appserver.edge_self_ms_per_ixn", unit: "ms"},
	{name: "appserver.page_bytes", unit: "B"},
	{name: "dbwire.edge_calls_per_ixn", unit: "count"},
	{name: "dbwire.edge_call_p50_ms", unit: "ms"},
	{name: "dbwire.edge_overhead_ms_per_ixn", unit: "ms"},
	{name: "backend.db_calls_per_ixn", unit: "count"},
	{name: "backend.lan_overhead_ms_per_ixn", unit: "ms"},
	{name: "sqlstore.calls_per_ixn", unit: "count"},
	{name: "sqlstore.busy_ms_per_ixn", unit: "ms"},
	{name: "sqlstore.call_p50_us", unit: "us"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// statsLayer comes from the layers' public Stats() accessors, as deltas
// over the untraced measured phase.
var statsLayer = []metricDef{
	{name: "slicache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "slicache.finder_hit_ratio", unit: "ratio", better: "higher"},
	{name: "slicache.miss_fetches_per_ixn", unit: "count"},
	{name: "slicache.conflicts_per_ixn", unit: "count"},
	{name: "slicache.invalidations_per_ixn", unit: "count"},
	{name: "slicache.entries", unit: "count"},
	{name: "slicache.bytes", unit: "B"},
	{name: "backend.commits_rejected_ratio", unit: "ratio"},
	{name: "sqlstore.optimistic_fail_ratio", unit: "ratio"},
	{name: "sqlstore.version_checks_per_ixn", unit: "count"},
	{name: "sqlstore.table_scans_per_ixn", unit: "count"},
	{name: "sqlstore.lock_timeouts", unit: "count"},
	{name: "wire.shared_bytes_per_rt", unit: "B"},
	{name: "wire.retries", unit: "count"},
	{name: "wire.errors", unit: "count"},
	{name: "trade.fail_conflict", unit: "count"},
	{name: "trade.fail_exists", unit: "count"},
	{name: "trade.fail_transport", unit: "count"},
	{name: "trade.fail_other", unit: "count"},
	{name: "proc.allocs_per_ixn", unit: "count"},
	{name: "proc.alloc_bytes_per_ixn", unit: "B"},
	{name: "proc.cpu_ms_per_ixn", unit: "ms"},
	{name: "proc.gc_pause_ms_per_kixn", unit: "ms"},
	{name: "proc.goroutines_peak", unit: "count"},
}

// ladderLayer is two rows per rung plus the derived rows.
func ladderLayer() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		out = append(out, metricDef{name: r.name + "_ns", unit: "ns"}, metricDef{name: r.name + "_allocs", unit: "count"})
	}
	return append(out,
		metricDef{name: "latency.forward_rt_ns", unit: "ns"},
		metricDef{name: "latency.forward_rt_allocs", unit: "count"},
		metricDef{name: "latency.delay_overshoot_us", unit: "us"},
		metricDef{name: "ladder.rbes_lan_unattributed_ratio", unit: "ratio"},
	)
}

// perLayer is every per-layer metric, in a fixed order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), tracedLayer...)
	out = append(out, statsLayer...)
	out = append(out, ladderLayer()...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	for i := range out {
		if out[i].better == "" {
			out[i].better = "lower"
		}
	}
	return out
}
