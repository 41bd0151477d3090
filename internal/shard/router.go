package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// QueryAffinity reports the placement string a finder query is pinned
// to, when its predicates determine one (e.g. an equality on the
// sharding field). A pinned query runs on a single shard; anything else
// scatters to every shard and merges.
type QueryAffinity func(q memento.Query) (string, bool)

// Router is the edge-side face of the sharded datacenter tier: a
// storeapi.Conn over N per-shard connections that routes every key
// access to its owner, scatter/gathers finders, and applies commit
// sets by the decision rule in the package comment — fast path for one
// participant, per-shard validation for read-only multi-shard sets,
// edge-coordinated two-phase commit when mutations span shards.
type Router struct {
	ring  *Ring
	conns []storeapi.Conn
	aff   QueryAffinity

	// id namespaces this coordinator's global transaction identifiers;
	// gidSeq makes them unique within it.
	id     string
	gidSeq atomic.Uint64
}

var _ storeapi.Conn = (*Router)(nil)

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithQueryAffinity installs the finder-pruning hook (trade supplies
// one pinning holdings-by-account to the account's shard).
func WithQueryAffinity(aff QueryAffinity) RouterOption {
	return func(r *Router) { r.aff = aff }
}

// NewRouter builds a router over one connection per shard; conns[i]
// must talk to the shard the ring numbers i.
func NewRouter(ring *Ring, conns []storeapi.Conn, opts ...RouterOption) (*Router, error) {
	if len(conns) != ring.Shards() {
		return nil, fmt.Errorf("shard: %d conns for %d shards", len(conns), ring.Shards())
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("shard: coordinator id: %w", err)
	}
	r := &Router{ring: ring, conns: conns, id: hex.EncodeToString(buf[:])}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

func (r *Router) nextGid() string {
	return r.id + "-" + strconv.FormatUint(r.gidSeq.Add(1), 10)
}

// AutoGet routes the read to the key's owning shard: one round trip,
// exactly as against an unsharded tier.
func (r *Router) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	return r.conns[r.ring.Of(memento.Key{Table: table, ID: id})].AutoGet(ctx, table, id)
}

// AutoQuery runs a finder. A query the affinity hook pins to one
// placement runs on that shard alone; otherwise it scatters to every
// shard in parallel and merges the partial results into one
// primary-key order. The merged result says it came from one read
// per shard: the shards answered at different instants, so a
// cross-shard commit can fall between them.
func (r *Router) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	if r.aff != nil {
		if p, ok := r.aff(q); ok {
			return r.conns[r.ring.OfPlacement(p)].AutoQuery(ctx, q)
		}
	}
	ctx, sp := obs.StartSpan(ctx, "shard.scatter")
	defer sp.End()
	obsScatterQueries.Inc()
	results := make([]storeapi.QueryResult, len(r.conns))
	errs := make([]error, len(r.conns))
	fanOut(len(r.conns), func(i int) {
		results[i], errs[i] = r.conns[i].AutoQuery(ctx, q)
	})
	for _, err := range errs {
		if err != nil {
			return storeapi.QueryResult{}, err
		}
	}
	out := storeapi.QueryResult{Accesses: len(r.conns)}
	for i := range results {
		out.Mems = append(out.Mems, results[i].Mems...)
	}
	q.Sort(out.Mems)
	return out, nil
}

// ApplyCommitSet applies a whole optimistic commit set under the
// decision rule:
//
//   - every element owned by one shard → that shard's one-frame fast
//     path, byte-for-byte the unsharded protocol;
//   - several owners but no mutations → each shard validates its read
//     subset in parallel (per-shard serializability is enough: a
//     read-only set observes nothing across shards that a write could
//     have torn);
//   - several owners with mutations → two-phase commit across ALL
//     participants, including read-only ones, whose prepared shared
//     locks keep the cross-shard read proofs stable through the
//     decision.
func (r *Router) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	split := r.ring.Split(cs)
	if len(split) == 1 {
		for s, sub := range split {
			actx, asp := obs.StartSpan(ctx, "shard.apply")
			res, err := r.conns[s].ApplyCommitSet(actx, sub)
			asp.End()
			if err != nil {
				return sqlstore.ApplyResult{}, err
			}
			obsFastpathCommits.Inc()
			obsShardCommits.With(strconv.Itoa(s)).Inc()
			return res, nil
		}
	}
	if len(MutationShards(split)) == 0 {
		return r.validateScatter(ctx, split)
	}
	return r.twoPhase(ctx, split)
}

// validateScatter proves a read-only multi-shard set by running each
// shard's subset through its ordinary apply path in parallel. No
// global coordination: each shard serializes its own subset against
// its own commits, which suffices because the set mutates nothing.
func (r *Router) validateScatter(ctx context.Context, split map[int]memento.CommitSet) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "shard.validate")
	defer sp.End()
	type part struct {
		shard int
		res   sqlstore.ApplyResult
		err   error
	}
	parts := make([]part, 0, len(split))
	for s := range split {
		parts = append(parts, part{shard: s})
	}
	fanOut(len(parts), func(i int) {
		p := &parts[i]
		pctx, psp := obs.StartSpan(ctx, "shard.apply")
		p.res, p.err = r.conns[p.shard].ApplyCommitSet(pctx, split[p.shard])
		psp.End()
	})
	for i := range parts {
		if parts[i].err != nil {
			return sqlstore.ApplyResult{}, parts[i].err
		}
	}
	obsReadonlyCommits.Inc()
	for i := range parts {
		obsShardCommits.With(strconv.Itoa(parts[i].shard)).Inc()
	}
	return sqlstore.ApplyResult{}, nil
}

// twoPhase runs edge-coordinated 2PC: parallel prepares, then parallel
// commit-or-abort. Any no vote aborts the whole set and surfaces the
// refusing shard's error — an attributed conflict crosses shards
// intact, so the loser learns the winner even when they committed on
// different shards. A commit failure after unanimous yes votes is a
// heuristic outcome: some participants committed, the failing one
// presumably aborted (its TTL fired). It is counted, evented, and
// surfaced as an error; see DESIGN.md's recovery table.
func (r *Router) twoPhase(ctx context.Context, split map[int]memento.CommitSet) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "shard.2pc")
	defer sp.End()
	gid := r.nextGid()

	type part struct {
		shard int
		prep  storeapi.Preparer
		res   sqlstore.ApplyResult
		err   error
	}
	parts := make([]part, 0, len(split))
	for s := range split {
		p, ok := r.conns[s].(storeapi.Preparer)
		if !ok {
			obsTwoPCAborts.Inc()
			return sqlstore.ApplyResult{}, fmt.Errorf("shard: shard %d connection cannot prepare: %w", s, sqlstore.ErrConflict)
		}
		parts = append(parts, part{shard: s, prep: p})
	}

	fanOut(len(parts), func(i int) {
		p := &parts[i]
		pctx, psp := obs.StartSpan(ctx, "shard.prepare")
		p.err = p.prep.Prepare(pctx, gid, split[p.shard])
		psp.End()
	})

	var veto error
	for i := range parts {
		if parts[i].err == nil {
			continue
		}
		var ce *sqlstore.ConflictError
		if veto == nil || errors.As(parts[i].err, &ce) {
			veto = parts[i].err
		}
	}
	if veto != nil {
		// Abort every participant: a no vote may be a lost reply from one
		// that prepared, and aborting an unknown gid is a no-op. Detached
		// from the caller's context: the decision must reach the
		// participants even if the caller gives up.
		actx := context.WithoutCancel(ctx)
		fanOut(len(parts), func(i int) {
			_ = parts[i].prep.AbortPrepared(actx, gid)
		})
		obsTwoPCAborts.Inc()
		return sqlstore.ApplyResult{}, veto
	}

	// Unanimous yes: the decision is commit. Detached from the caller's
	// context for the same reason as the abort fan-out.
	cctx := context.WithoutCancel(ctx)
	fanOut(len(parts), func(i int) {
		p := &parts[i]
		pctx, psp := obs.StartSpan(cctx, "shard.commit_prepared")
		p.res, p.err = p.prep.CommitPrepared(pctx, gid)
		psp.End()
	})

	var out sqlstore.ApplyResult
	for i := range parts {
		if parts[i].err != nil {
			obsTwoPCHeuristics.Inc()
			obs.DefaultEvents.Emit(obs.Event{
				Type:   obs.EventTwoPC,
				Detail: fmt.Sprintf("heuristic outcome for %s: shard %d failed commit-prepared: %v", gid, parts[i].shard, parts[i].err),
			})
			return sqlstore.ApplyResult{}, fmt.Errorf("shard: heuristic 2PC outcome on shard %d: %w", parts[i].shard, parts[i].err)
		}
		// Each shard numbers its own commits, so the merged result has
		// no one Seq: every key carries its shard's.
		for k, v := range sqlstore.Applied(split[parts[i].shard], parts[i].res.Seq).NewVersions {
			if out.NewVersions == nil {
				out.NewVersions = make(map[memento.Key]uint64)
			}
			out.NewVersions[k] = v
		}
	}
	obsTwoPCCommits.Inc()
	for i := range parts {
		obsShardCommits.With(strconv.Itoa(parts[i].shard)).Inc()
	}
	return out, nil
}

// fanOut runs call(0) … call(n-1) concurrently and returns when all
// have: the shape of every per-shard exchange the router makes. The
// first call runs on the caller's goroutine, one goroutine fewer per
// exchange.
func fanOut(n int, call func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	call(0)
	wg.Wait()
}

// ApplyCommitSets applies each set through the routing decision rule.
func (r *Router) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return storeapi.ApplyEach(ctx, r, sets)
}

// ErrCommitSetsOnly is Begin's answer: the sharded tier runs the
// whole-set shipping algorithm, so every transaction reaches it as one
// commit set (ApplyCommitSet) and none as statements.
var ErrCommitSetsOnly = errors.New("shard: the sharded tier takes commit sets only, not transactions")

// Begin refuses: see ErrCommitSetsOnly.
func (r *Router) Begin(ctx context.Context) (storeapi.Txn, error) {
	return nil, ErrCommitSetsOnly
}

// Subscribe merges every shard's invalidation stream into one channel.
// When any shard's stream dies, or the subscriber falls a full buffer
// behind, the whole merged stream is torn down (channel closed, every
// subscription cancelled): the subscriber can't trust a partial view —
// a silent gap on one shard would leave its rows stale forever — so it
// clears its cache and resubscribes, exactly as for a single lost
// stream.
func (r *Router) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	chans := make([]<-chan sqlstore.Notice, 0, len(r.conns))
	cancels := make([]func(), 0, len(r.conns))
	for _, c := range r.conns {
		ch, cancel, err := c.Subscribe(ctx)
		if err != nil {
			for _, cl := range cancels {
				cl()
			}
			return nil, nil, err
		}
		chans = append(chans, ch)
		cancels = append(cancels, cancel)
	}
	out := make(chan sqlstore.Notice, 64*len(r.conns))
	stop := make(chan struct{})
	var once sync.Once
	halt := func() {
		once.Do(func() {
			close(stop)
			for _, cl := range cancels {
				cl()
			}
		})
	}
	var wg sync.WaitGroup
	for _, ch := range chans {
		wg.Add(1)
		go func(ch <-chan sqlstore.Notice) {
			defer wg.Done()
			for {
				select {
				case n, ok := <-ch:
					if !ok {
						halt()
						return
					}
					select {
					case out <- n:
					default:
						// A subscriber a full buffer behind loses the
						// stream, not the notice, like every source.
						halt()
						return
					}
				case <-stop:
					return
				}
			}
		}(ch)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, halt, nil
}

// Close closes every per-shard connection, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, c := range r.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
