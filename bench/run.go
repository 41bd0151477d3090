package main

import (
	"context"
	"fmt"
	"time"
)

// deployment is a warmed-up topology with its clients, ready to measure.
type deployment struct {
	topo    *topology
	clients []*client
	// worth is every user's net worth before warm-up, for oracle (b).
	worth map[string]float64
	// setup is the wall time of assembling the topology, populating the
	// database and running the warm-up sessions.
	setup time.Duration
	// hash folds every warm-up stream's step hash.
	warmHash uint64
}

// setUp assembles, populates and warms one deployment. Warm-up runs at
// 0 ms, edge by edge, so it neither waits on the proxy nor conflicts.
func setUp(ctx context.Context, w workload, seed int64, traceBase time.Time) (d *deployment, err error) {
	start := time.Now()
	topo, err := buildTopology(w, seed, traceBase)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			topo.close()
		}
	}()
	d = &deployment{topo: topo, setup: time.Since(start)}

	// The oracle's opening read is not part of what a user waits for.
	if d.worth, err = netWorth(ctx, topo.store); err != nil {
		return nil, err
	}

	start = time.Now()
	base := traceBase
	if base.IsZero() {
		base = start
	}
	bought := make(map[string]int)
	for i, e := range topo.edges {
		warm := &client{e: e, stream: newStream(w, seed, 2*i, fmt.Sprintf("w%d-", i), i, bought), base: base}
		for leg := range topo.edges {
			warm.run(ctx, warm.stream.sessions(w.warmupSessions/len(topo.edges), leg))
		}
		if warm.oracleErr != nil {
			return nil, warm.oracleErr
		}
		if n := warm.fails.total(); n > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d interactions failed (%+v)", n, warm.attempted, warm.fails)
		}
		d.warmHash = d.warmHash*31 + warm.stream.sum()
		d.clients = append(d.clients, &client{
			e: e, stream: newStream(w, seed, 2*i+1, fmt.Sprintf("c%d-", i), i, bought), base: base,
		})
	}
	d.setup += time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// stepHash identifies the step streams a run sent: warm-up and clients.
func (d *deployment) stepHash() uint64 {
	h := d.warmHash
	for _, c := range d.clients {
		h = h*31 + c.stream.sum()
	}
	return h
}

// run is the outcome of one measured phase on one deployment.
type run struct {
	phase    *phase
	setup    time.Duration
	stepHash uint64
	trace    *traceReport // traced runs only
}

// runPhase sets a deployment up, measures one phase on it, runs the
// correctness oracle and tears it down. A zero traceBase is the untraced
// run: rounds until budget, at least rounds of them. A traced run is one
// round with the span decorators in place.
func runPhase(ctx context.Context, w workload, seed int64, budget time.Duration, rounds int, traceBase time.Time) (*run, error) {
	d, err := setUp(ctx, w, seed, traceBase)
	if err != nil {
		return nil, err
	}
	defer d.topo.close()
	traced := !traceBase.IsZero()
	if traced {
		budget, rounds = 0, 1
		for _, rec := range d.topo.recorders() {
			rec.take() // drop warm-up spans
		}
		for _, c := range d.clients {
			c.traced = true
		}
	}
	if d.topo.proxy != nil {
		d.topo.proxy.SetDelay(w.delay)
	}
	p, err := measure(ctx, d.topo, d.clients, budget, rounds)
	if err != nil {
		return nil, err
	}
	if d.topo.proxy != nil {
		d.topo.proxy.SetDelay(0)
	}
	after, err := netWorth(ctx, d.topo.store)
	if err != nil {
		return nil, err
	}
	if err := checkWorth(d.worth, after); err != nil {
		return nil, err
	}
	r := &run{phase: p, setup: d.setup, stepHash: d.stepHash()}
	if traced {
		r.trace = analyze(d.topo, p)
	}
	return r, nil
}

// setupSamples is how many times an end-to-end run sets the deployment
// up; setup_s is the median, so one slow start (page faults, a cold
// listener) does not decide it.
const setupSamples = 3

// runUntraced measures the end-to-end phase. Before it, the deployment
// is set up and torn down setupSamples-1 more times, for setup_s only.
func runUntraced(ctx context.Context, w workload, seed int64, budget time.Duration) (*run, quartiles, error) {
	setups := make([]float64, 0, setupSamples)
	for i := 1; i < setupSamples; i++ {
		d, err := setUp(ctx, w, seed, time.Time{})
		if err != nil {
			return nil, quartiles{}, err
		}
		d.topo.close()
		setups = append(setups, d.setup.Seconds())
	}
	r, err := runPhase(ctx, w, seed, budget, fixedRounds, time.Time{})
	if err != nil {
		return nil, quartiles{}, err
	}
	setups = append(setups, r.setup.Seconds())
	return r, summarize(setups), nil
}
