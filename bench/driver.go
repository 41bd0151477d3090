package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/trade"
)

// failCounts classifies failed interactions by cause, so that a failure
// means a failure: conflicts exhausted their retries, exists is a
// duplicate key, transport is a failed page load, other is an
// application rule.
type failCounts struct {
	conflict, exists, transport, other int
}

func (f failCounts) total() int { return f.conflict + f.exists + f.transport + f.other }

// classify reads the cause out of Response.Err; the needles are the
// store's own error texts, which cross both wire protocols verbatim.
func (f *failCounts) classify(errText string) {
	switch {
	case strings.Contains(errText, sqlstore.ErrConflict.Error()):
		f.conflict++
	case strings.Contains(errText, sqlstore.ErrExists.Error()):
		f.exists++
	default:
		f.other++
	}
}

// tally is what clients count about their interactions.
type tally struct {
	attempted, ok int
	fails         failCounts
	pageBytes     int64
}

func (t tally) failed() int { return t.fails.total() }

// plus is t + sign×u, field by field: sign -1 gives the tally since an
// earlier one.
func (t tally) plus(sign int, u tally) tally {
	t.attempted += sign * u.attempted
	t.ok += sign * u.ok
	t.fails.conflict += sign * u.fails.conflict
	t.fails.exists += sign * u.fails.exists
	t.fails.transport += sign * u.fails.transport
	t.fails.other += sign * u.fails.other
	t.pageBytes += int64(sign) * u.pageBytes
	return t
}

// client is one closed-loop virtual client: it sends its next
// interaction when the previous page arrives.
type client struct {
	e      *edge
	stream *stream
	base   time.Time
	traced bool

	lat   []float64 // ms, OK interactions of the current round
	roots []span    // traced runs: one root span per interaction

	tally          // since the client was made
	oracleErr      error
	goroutinesPeak int
}

func sumTallies(clients []*client) tally {
	var sum tally
	for _, c := range clients {
		sum = sum.plus(1, c.tally)
	}
	return sum
}

func (c *client) run(ctx context.Context, sessions [][]trade.Step) {
	for _, sess := range sessions {
		for _, st := range sess {
			req, err := appserver.StepRequest(st)
			if err != nil {
				c.attempted++
				c.fails.other++
				continue
			}
			start := time.Since(c.base)
			resp, err := c.e.client.Do(ctx, req)
			end := time.Since(c.base)
			c.attempted++
			if c.traced {
				c.roots = append(c.roots, span{op: req.Action, start: int64(start), end: int64(end)})
			}
			switch {
			case err != nil:
				c.fails.transport++
			case !resp.OK:
				c.fails.classify(resp.Err)
			default:
				c.ok++
				c.lat = append(c.lat, float64(end-start)/1e6)
				c.pageBytes += int64(len(resp.Body))
				if oerr := checkBody(st, resp); oerr != nil && c.oracleErr == nil {
					c.oracleErr = oerr
				}
			}
		}
		if g := runtime.NumGoroutine(); g > c.goroutinesPeak {
			c.goroutinesPeak = g
		}
	}
}

// roundStats are one round's timing figures. The reported metric is the
// median over rounds.
type roundStats struct {
	mean, p50, p95, p99 float64 // ms
	ixnPerS             float64
	samples             int
}

// counters is a snapshot of every count the benchmark reads from the
// layers' public accessors: cumulative ones, which only mean something as
// the difference of two snapshots, and the cache's two gauges. They are
// floats because all that is done with them is arithmetic.
type counters struct {
	sharedRT, sharedBytes     float64
	wireRetries, wireErrors   float64
	hits, misses              float64
	finderHits, finderMisses  float64
	missFetches, conflicts    float64
	invalidations             float64
	applied, rejected         float64
	optOK, optFail            float64
	versionChecks, tableScans float64
	lockTimeouts              float64
	mallocs, allocBytes       float64
	gcPauseMs, cpuMs          float64

	cacheEntries, cacheBytes float64 // gauges
}

// since is what was counted between snapshot b and snapshot c; the gauges
// are c's.
func (c counters) since(b counters) counters {
	c.sharedRT -= b.sharedRT
	c.sharedBytes -= b.sharedBytes
	c.wireRetries -= b.wireRetries
	c.wireErrors -= b.wireErrors
	c.hits -= b.hits
	c.misses -= b.misses
	c.finderHits -= b.finderHits
	c.finderMisses -= b.finderMisses
	c.missFetches -= b.missFetches
	c.conflicts -= b.conflicts
	c.invalidations -= b.invalidations
	c.applied -= b.applied
	c.rejected -= b.rejected
	c.optOK -= b.optOK
	c.optFail -= b.optFail
	c.versionChecks -= b.versionChecks
	c.tableScans -= b.tableScans
	c.lockTimeouts -= b.lockTimeouts
	c.mallocs -= b.mallocs
	c.allocBytes -= b.allocBytes
	c.gcPauseMs -= b.gcPauseMs
	c.cpuMs -= b.cpuMs
	return c
}

func (t *topology) snapshot() counters {
	var c counters
	ws := t.sharedWire()
	c.sharedRT, c.wireRetries, c.wireErrors = float64(ws.RoundTrips), float64(ws.Retries), float64(ws.Errors)
	c.sharedBytes = float64(t.proxy.Counter().Total())
	for _, e := range t.edges {
		if e.mgr == nil {
			continue
		}
		s := e.mgr.Stats()
		c.hits += float64(s.Cache.Hits)
		c.misses += float64(s.Cache.Misses)
		c.finderHits += float64(s.Finders.Hits)
		c.finderMisses += float64(s.Finders.Misses)
		c.missFetches += float64(s.MissFetches)
		c.conflicts += float64(s.Conflicts)
		c.invalidations += float64(s.Cache.Invalidations + s.Finders.Invalidations)
		c.cacheEntries += float64(s.Cache.Entries)
		c.cacheBytes += float64(s.Cache.Bytes)
	}
	if t.backend != nil {
		c.applied, c.rejected = float64(t.backend.CommitsApplied()), float64(t.backend.CommitsRejected())
	}
	ss := t.store.Stats()
	c.optOK, c.optFail = float64(ss.OptimisticOK), float64(ss.OptimisticFail)
	c.versionChecks, c.tableScans, c.lockTimeouts = float64(ss.VersionChecks), float64(ss.TableScans), float64(ss.LockTimeouts)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseMs = float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.PauseTotalNs)/1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuMs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	return c
}

// phase is one measured phase: rounds of a fixed session count.
//
// How many rounds fit in the time budget depends on the machine, so a
// count taken over all of them would be a count over different steps from
// one run of a seed to the next (and the live heap grows with the users
// that register). Counts, ratios and the live heap are therefore taken
// over the first countedRounds rounds only — the same work on any
// machine, exact for a seed — and only the timing figures use every
// round.
type phase struct {
	rounds        []roundStats
	countedRounds int
	total         tally // every round
	fixed         tally // the first countedRounds rounds
	// counted is what the layers counted over the first countedRounds
	// rounds.
	counted        counters
	heapMB         float64
	goroutinesPeak int
	firstRoundRT   uint64 // shared-hop round trips of round one, for oracle (d)
	firstRoundIxn  int
	roots          [][]span // traced: per client, round one
}

// measure runs counted rounds, then more until budget has elapsed.
func measure(ctx context.Context, t *topology, clients []*client, budget time.Duration, counted int) (*phase, error) {
	p := &phase{countedRounds: counted}
	start := sumTallies(clients)
	requests0 := t.requests()
	// Snapshots are taken with no notice in flight, so that a count is
	// the same every time a seed is run.
	t.quiesce()
	before := t.snapshot()
	phaseStart := time.Now()
	var lastWall time.Duration
	legs := len(clients)
	for r := 0; r < counted || time.Since(phaseStart)+lastWall/2 < budget; r++ {
		okBefore := sumTallies(clients).ok
		for _, c := range clients {
			c.lat = c.lat[:0]
		}
		rt0 := t.sharedWire().RoundTrips
		lastWall = 0
		// One leg per edge (see stream.rewrite); clients start each leg
		// together, and steps are generated outside the timed part.
		for leg := 0; leg < legs; leg++ {
			sessions := make([][][]trade.Step, len(clients))
			for i, c := range clients {
				sessions[i] = c.stream.sessions(t.w.roundSessions/legs, leg)
			}
			legStart := time.Now()
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.run(ctx, sessions[i])
				}()
			}
			wg.Wait()
			lastWall += time.Since(legStart)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}

		var lat []float64
		for _, c := range clients {
			lat = append(lat, c.lat...)
		}
		if len(lat) == 0 {
			return nil, fmt.Errorf("round %d: no interaction succeeded (%+v)", r, sumTallies(clients).plus(-1, start).fails)
		}
		sort.Float64s(lat)
		p.rounds = append(p.rounds, roundStats{
			mean:    mean(lat),
			p50:     percentile(lat, 0.50),
			p95:     percentile(lat, 0.95),
			p99:     percentile(lat, 0.99),
			ixnPerS: float64(sumTallies(clients).ok-okBefore) / lastWall.Seconds(),
			samples: len(lat),
		})
		if r == 0 {
			p.firstRoundRT = t.sharedWire().RoundTrips - rt0
			p.firstRoundIxn = sumTallies(clients).plus(-1, start).attempted
			for _, c := range clients {
				p.roots = append(p.roots, c.roots)
			}
		}
		if r == counted-1 {
			t.quiesce()
			p.counted = t.snapshot().since(before)
			p.fixed = sumTallies(clients).plus(-1, start)
			// Live heap with the deployment still up, so speed bought
			// with cache or pool memory shows.
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
	}
	p.total = sumTallies(clients).plus(-1, start)
	for _, c := range clients {
		if c.goroutinesPeak > p.goroutinesPeak {
			p.goroutinesPeak = c.goroutinesPeak
		}
		if c.oracleErr != nil {
			return nil, c.oracleErr
		}
	}

	// Oracle (c): the servers saw exactly what the clients sent.
	if got := t.requests() - requests0; got != uint64(p.total.attempted) || p.total.attempted != p.total.ok+p.total.failed() {
		return nil, fmt.Errorf("oracle: servers counted %d requests, clients attempted %d (%d ok + %d failed)",
			got, p.total.attempted, p.total.ok, p.total.failed())
	}
	// Oracle (d), Clients/RAS half: a page is exactly one round trip.
	if rt := p.counted.sharedRT; t.w.arch == archRAS && rt != float64(p.fixed.attempted) {
		return nil, fmt.Errorf("oracle: %.0f round trips on the client hop for %d interactions", rt, p.fixed.attempted)
	}
	return p, nil
}

// over reports a per-round figure's quartiles over the phase's rounds.
func (p *phase) over(f func(roundStats) float64) quartiles {
	vals := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		vals[i] = f(r)
	}
	return summarize(vals)
}
