package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use. The padding keeps
// each counter on its own cache line: counters are allocated in batches
// (one per metric name), and unpadded they would land adjacent in
// memory, so unrelated counters hammered by different goroutines would
// false-share lines and serialize on cache-coherence traffic.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, connection
// counts). The zero value is ready to use. Padded like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of power-of-two latency buckets: bucket i
// counts observations with duration < 1µs<<i, and the last bucket
// absorbs everything longer (~67s and beyond). The same bucketing is
// used by the wire transport's per-op stats, so the two agree.
const HistBuckets = 27

// Histogram is a lock-free log-bucketed latency histogram. Observations
// land in power-of-two duration buckets; quantiles are therefore upper
// bounds with at most 2× resolution, which is plenty for "where did the
// millisecond go" questions. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bits.Len64(uint64(d / time.Microsecond))
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[idx].Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Snapshot captures the histogram's current state. Under concurrent
// Observe calls the fields may be mutually inconsistent by a few
// in-flight observations; that slack is fine for monitoring and the
// fields settle once writers stop.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, the unit the
// registry snapshots, diffs, and serves over /metrics.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     time.Duration       `json:"sum_ns"`
	Max     time.Duration       `json:"max_ns"`
	Buckets [HistBuckets]uint64 `json:"-"`
}

// Mean returns the mean observed duration (zero when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the p-th quantile (0 < p <= 1) by locating the
// bucket containing the target rank and interpolating linearly within
// it: the rank's position among the bucket's observations picks a point
// between the bucket's lower and upper edges. With power-of-two buckets
// a pure upper-bound answer can overstate a quantile by almost 2×;
// interpolation assumes observations spread evenly within the bucket,
// bounding the worst-case relative error near 50% and keeping it far
// smaller for smooth distributions (pinned by TestQuantileInterpolation).
// The estimate is clamped at the observed maximum; the overflow bucket,
// whose upper edge is unbounded, interpolates toward that maximum. An
// empty snapshot returns zero.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	pos := p * float64(s.Count)
	if pos < 1 {
		pos = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) < pos {
			cum += n
			continue
		}
		// Bucket i holds durations in [lo, hi): bucket 0 is [0, 1µs),
		// bucket i≥1 is [1µs<<(i-1), 1µs<<i). The overflow bucket and
		// any bucket holding the largest observation are capped at the
		// observed maximum instead of their nominal edge.
		var lo time.Duration
		if i > 0 {
			lo = time.Microsecond << (i - 1)
		}
		hi := time.Microsecond << i
		if i == HistBuckets-1 || (s.Max >= lo && s.Max < hi) {
			hi = max(s.Max, lo)
		}
		frac := (pos - float64(cum)) / float64(n)
		est := lo + time.Duration(frac*float64(hi-lo))
		return min(est, s.Max)
	}
	return s.Max
}

// Sub returns the activity between two snapshots of the same histogram:
// counts and sums subtract (clamped at zero against counter resets);
// Max cannot be diffed, so the later snapshot's value is kept.
func (s HistSnapshot) Sub(before HistSnapshot) HistSnapshot {
	out := HistSnapshot{Max: s.Max}
	if s.Count > before.Count {
		out.Count = s.Count - before.Count
	}
	if s.Sum > before.Sum {
		out.Sum = s.Sum - before.Sum
	}
	for i := range s.Buckets {
		if s.Buckets[i] > before.Buckets[i] {
			out.Buckets[i] = s.Buckets[i] - before.Buckets[i]
		}
	}
	return out
}
