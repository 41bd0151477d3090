package prof

import (
	"fmt"
	"sync"
	"time"

	"runtime/metrics"

	"edgeejb/internal/obs"
)

// Runtime reads the Go runtime's own meters into an obs.Registry so
// they ride every existing export (text and JSON /metrics, per-phase
// diffs) next to the application's metrics:
//
//	runtime.goroutines_highwater  gauge    max goroutines ever sampled
//	runtime.allocs_total          counter  heap objects allocated
//	runtime.alloc_bytes_total     counter  heap bytes allocated
//
// These are the three summary.json's resource.* metrics are built from;
// the cumulative runtime totals are turned into counter deltas from
// construction onward. Update is cheap (three metrics.Read samples);
// the background loop costs nothing measurable at a 250ms-1s cadence.
type Runtime struct {
	mu sync.Mutex

	highwater  *obs.Gauge
	allocs     *obs.Counter
	allocBytes *obs.Counter

	samples []metrics.Sample

	prevAllocs, prevAllocBytes uint64

	stop chan struct{}
	done chan struct{}
}

// Indices into Runtime.samples; keep in sync with the names below.
const (
	sGoroutines = iota
	sAllocObjs
	sAllocBytes
	numRuntimeSamples
)

var runtimeSampleNames = [numRuntimeSamples]string{
	sGoroutines: "/sched/goroutines:goroutines",
	sAllocObjs:  "/gc/heap/allocs:objects",
	sAllocBytes: "/gc/heap/allocs:bytes",
}

// NewRuntime registers the runtime.* families in reg (obs.Default when
// nil) and primes the cumulative baselines, so the counters report
// activity from construction onward rather than since process start.
// Call Update at interesting instants (phase boundaries), or Start for
// a background cadence.
func NewRuntime(reg *obs.Registry) *Runtime {
	if reg == nil {
		reg = obs.Default
	}
	r := &Runtime{
		highwater:  reg.Gauge("runtime.goroutines_highwater"),
		allocs:     reg.Counter("runtime.allocs_total"),
		allocBytes: reg.Counter("runtime.alloc_bytes_total"),
		samples:    make([]metrics.Sample, numRuntimeSamples),
	}
	for i, name := range runtimeSampleNames {
		r.samples[i].Name = name
	}
	// Prime the baselines: read once and discard the cumulative totals
	// accumulated before this collector existed.
	metrics.Read(r.samples)
	r.prevAllocs = counterValue(r.samples[sAllocObjs])
	r.prevAllocBytes = counterValue(r.samples[sAllocBytes])
	r.Update()
	return r
}

// ServeDebug is a daemon's debug start-up. It labels this process's
// spans with tier (/debug/spans) and, when addr is not empty, serves
// /metrics, /healthz and /debug/pprof on addr with the Go runtime's
// meters in /metrics, and prints the address under name. stop halts
// the meters and closes the server; with an empty addr it does nothing.
func ServeDebug(name, tier, addr string) (stop func(), err error) {
	obs.SetTier(tier)
	if addr == "" {
		return func() {}, nil
	}
	dbg, err := obs.StartDebug(addr, obs.DebugOptions{})
	if err != nil {
		return nil, err
	}
	rt := StartRuntime(obs.Default, time.Second)
	fmt.Printf("%s: debug endpoints on http://%s/metrics\n", name, dbg.Addr())
	return func() {
		rt.Stop()
		_ = dbg.Close()
	}, nil
}

// StartRuntime is NewRuntime plus a background goroutine calling Update
// every interval (1s when non-positive). Stop halts it.
func StartRuntime(reg *obs.Registry, interval time.Duration) *Runtime {
	r := NewRuntime(reg)
	if interval <= 0 {
		interval = time.Second
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.stop, r.done = stop, done
	// The loop selects on the captured locals, not the struct fields:
	// Stop nils the fields (for idempotency) before closing the channel,
	// and a select that re-read r.stop could block on nil forever.
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.Update()
			case <-stop:
				r.Update()
				return
			}
		}
	}()
	return r
}

// Stop halts the background loop after one final Update. Safe to call
// on a Runtime built with NewRuntime (no-op) and safe to call twice.
func (r *Runtime) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Update reads the runtime meters once and folds the activity since the
// previous Update into the registered metrics. Serialized internally;
// safe to call from the background loop and phase boundaries at once.
func (r *Runtime) Update() {
	r.mu.Lock()
	defer r.mu.Unlock()

	metrics.Read(r.samples)

	if g := int64(counterValue(r.samples[sGoroutines])); g > r.highwater.Value() {
		r.highwater.Set(g)
	}
	r.prevAllocs = advance(r.allocs, r.prevAllocs, counterValue(r.samples[sAllocObjs]))
	r.prevAllocBytes = advance(r.allocBytes, r.prevAllocBytes, counterValue(r.samples[sAllocBytes]))
}

// advance adds (cur - prev) to c and returns cur, tolerating a meter
// that is absent (KindBad reads as 0) without going backwards.
func advance(c *obs.Counter, prev, cur uint64) uint64 {
	if cur > prev {
		c.Add(cur - prev)
		return cur
	}
	return prev
}

// counterValue extracts a scalar sample as uint64 (0 for an absent
// sample).
func counterValue(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}
