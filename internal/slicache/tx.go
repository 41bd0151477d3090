package slicache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// entryState tracks what a transaction has done to a cached bean.
type entryState int

const (
	stateClean entryState = iota + 1
	stateDirty
	stateCreated
	stateRemoved
)

// entry is one bean in the per-transaction transient store. Its images
// are replaced, never edited: current may share its fields with the
// common store's fill, a cached finder result and the commit set, and
// only what Load, LoadMany and Query hand the caller is a copy.
type entry struct {
	// version is the version of the state first observed by this
	// transaction (the before-image, §2.1), the only part of it commit
	// needs; 0 for created beans.
	version uint64
	// current is the transaction's working state (becomes the
	// after-image at commit).
	current memento.Memento
	state   entryState
	// fetchedAt is when the before-image was known current at the
	// persistent store (or stored into the common cache). Conflict
	// forensics report the losing read's age from it.
	fetchedAt time.Time
}

// sliTx is the per-transaction transient store plus the optimistic
// transaction logic of §2.2–2.3. It implements component.DataTx and
// component.MultiLoader.
type sliTx struct {
	mgr     *Manager
	entries map[memento.Key]*entry
	// finderSource marks keys whose before-image entered the transaction
	// from the finder-result cache rather than a fresh store read. A
	// conflict on such a key is a stale cached finder result that slipped
	// past invalidation — forensically distinct from an ordinary race.
	finderSource map[memento.Key]bool
	// accesses counts the store reads made for this transaction: one per
	// miss fetched and one per shard a finder asked. cacheServed is set
	// once the common store or the finder cache answers a read. Together
	// they decide whether a read-only commit needs validating (see
	// provenByItsRead).
	accesses    int
	cacheServed bool
	done        bool
}

var _ component.MultiLoader = (*sliTx)(nil)

// Load is the one-key case of LoadMany.
func (t *sliTx) Load(ctx context.Context, key memento.Key) (memento.Memento, error) {
	mems, err := t.LoadMany(ctx, []memento.Key{key})
	if err != nil {
		return memento.Memento{}, err
	}
	return mems[0], nil
}

// miss is one key LoadMany has to fetch from the persistent store.
type miss struct {
	key memento.Key
	at  int // position of the key's first occurrence in the argument list
	res storeapi.GetResult
	err error
}

// LoadMany implements the direct-access cache population path (§2.2
// case 1) for every key: per-transaction store, then common store, then
// the persistent store. It implements component.MultiLoader: the keys
// neither store holds are fetched at the same time, so a transaction
// that misses on several beans waits for one round trip on the
// high-latency path rather than one per bean. Each fetch is still its
// own short independent transaction (§2.3) and is accounted, cached and
// proven at commit exactly as a lone miss is; only when it is issued
// changes. A key named twice is fetched once. Every key is processed
// whatever happens to the others — a fetch that succeeded is committed
// state and warms the common store — and the error returned is that of
// the first key in argument order that could not be loaded.
func (t *sliTx) LoadMany(ctx context.Context, keys []memento.Key) ([]memento.Memento, error) {
	if t.done {
		return nil, sqlstore.ErrTxDone
	}
	out := make([]memento.Memento, len(keys))
	var (
		misses   []miss
		repeats  []int // positions repeating a key already in misses
		firstErr error // of the failing key at the lowest position, errAt
		errAt    int
	)
next:
	for i, key := range keys {
		t.mgr.stats.loads.Add(1)
		for j := range misses {
			if misses[j].key == key {
				repeats = append(repeats, i)
				continue next
			}
		}
		m, ok, err := t.cached(ctx, key)
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr, errAt = err, i
			}
		case ok:
			out[i] = m
		default:
			misses = append(misses, miss{key: key, at: i})
		}
	}
	if len(misses) > 0 {
		t.accesses += len(misses)
		t.fetchAll(ctx, misses)
	}
	for j := range misses {
		f := &misses[j]
		if f.err != nil {
			if firstErr == nil || f.at < errAt {
				firstErr, errAt = f.err, f.at
			}
			continue
		}
		t.mgr.stats.missFetches.Add(1)
		m := f.res.Mem
		t.mgr.common.Put(m)
		t.entries[f.key] = &entry{
			version:   m.Version,
			current:   m,
			state:     stateClean,
			fetchedAt: t.mgr.now(),
		}
		out[f.at] = m.Clone()
	}
	for _, i := range repeats {
		// No entry means the first occurrence's fetch failed, and its
		// error already stands for this later position.
		if e, ok := t.entries[keys[i]]; ok {
			out[i] = e.current.Clone()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// cached serves key without the persistent store when it can: from the
// per-transaction store (an error when the transaction removed the
// bean), else from the common store, whose fresh copy then becomes the
// entry's image. Either way the caller gets its own copy.
func (t *sliTx) cached(ctx context.Context, key memento.Key) (memento.Memento, bool, error) {
	if e, ok := t.entries[key]; ok {
		if e.state == stateRemoved {
			return memento.Memento{}, false, fmt.Errorf("%w: %s removed in transaction", sqlstore.ErrNotFound, key)
		}
		return e.current.Clone(), true, nil
	}
	m, storedAt, ok := t.mgr.common.GetWithTime(key)
	if !ok {
		return memento.Memento{}, false, nil
	}
	t.cacheServed = true
	t.entries[key] = &entry{
		version:   m.Version,
		current:   m,
		state:     stateClean,
		fetchedAt: storedAt,
	}
	return m.Clone(), true, nil
}

// fetchAll fetches every miss from the persistent store, each as its own
// short transaction, and returns when all of them have: the first on the
// caller's goroutine, so a lone miss starts none, and the others
// alongside it. That fan-out is the number of distinct missing beans one
// Find names, which application code writes out by hand. A fetch touches
// nothing but its own miss.
func (t *sliTx) fetchAll(ctx context.Context, misses []miss) {
	fetch := func(f *miss) {
		fctx, sp := obs.StartSpan(ctx, "slicache.miss_fetch")
		f.res, f.err = t.mgr.loader.FetchOne(fctx, f.key)
		sp.End()
	}
	var wg sync.WaitGroup
	for j := 1; j < len(misses); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetch(&misses[j])
		}()
	}
	fetch(&misses[0])
	wg.Wait()
}

// Store registers an updated after-image. The bean must have been
// loaded or created in this transaction (the container always finds
// before it updates).
func (t *sliTx) Store(ctx context.Context, m memento.Memento) error {
	if t.done {
		return sqlstore.ErrTxDone
	}
	e, ok := t.entries[m.Key]
	if !ok || e.state == stateRemoved {
		return fmt.Errorf("%w: %s not active in transaction", sqlstore.ErrNotFound, m.Key)
	}
	cur := m.Clone()
	cur.Version = e.version
	e.current = cur
	if e.state == stateClean {
		e.state = stateDirty
	}
	return nil
}

// Create registers a new bean (§2.2 case 3). Existence of the key is
// re-verified at commit time; the transaction fails fast only when its
// own view or the common store already holds the key.
func (t *sliTx) Create(ctx context.Context, m memento.Memento) error {
	if t.done {
		return sqlstore.ErrTxDone
	}
	e, ok := t.entries[m.Key]
	if ok && e.state != stateRemoved {
		return fmt.Errorf("%w: %s already active in transaction", sqlstore.ErrExists, m.Key)
	}
	if !ok && t.mgr.common.Contains(m.Key) {
		return fmt.Errorf("%w: %s cached as existing", sqlstore.ErrExists, m.Key)
	}
	if ok {
		// Remove followed by create in one transaction is a logical
		// update of the persistent row.
		cur := m.Clone()
		cur.Version = e.version
		e.current = cur
		if e.version == 0 {
			e.state = stateCreated
		} else {
			e.state = stateDirty
		}
		return nil
	}
	cur := m.Clone()
	cur.Version = 0
	t.entries[m.Key] = &entry{
		current: cur,
		state:   stateCreated,
	}
	return nil
}

// Remove registers deletion. The system verifies at commit time that
// the current image still exists (§2.3). Removing a bean the
// transaction has not touched loads it first to capture a before-image.
func (t *sliTx) Remove(ctx context.Context, key memento.Key) error {
	if t.done {
		return sqlstore.ErrTxDone
	}
	e, ok := t.entries[key]
	if !ok {
		if _, err := t.Load(ctx, key); err != nil {
			return err
		}
		e = t.entries[key]
	}
	switch e.state {
	case stateRemoved:
		return fmt.Errorf("%w: %s already removed in transaction", sqlstore.ErrNotFound, key)
	case stateCreated:
		// Never persisted: the create and remove annihilate.
		delete(t.entries, key)
		return nil
	default:
		e.state = stateRemoved
		return nil
	}
}

// Query implements the custom-finder population path (§2.2 case 2): run
// the finder against the persistent store, populate the cache without
// overlaying beans this transaction already holds (so the application
// sees its prior updates), then evaluate the finder against the
// transient store. The result is repeatable-read isolation: re-running
// a finder may grow the result set (phantoms), but beans already read
// keep the state this transaction first observed.
func (t *sliTx) Query(ctx context.Context, q memento.Query) ([]memento.Memento, error) {
	if t.done {
		return nil, sqlstore.ErrTxDone
	}
	t.mgr.stats.queries.Add(1)
	// Transactional finder-result caching: serve the committed result set
	// from the finder cache when a coherent copy is available, skipping
	// the high-latency store round trip. The rows still enter the
	// transaction's read set with the time taken before their store
	// call, so commit validation treats them exactly like that fetch.
	ck := t.mgr.finders.key(q)
	persisted, fetchedAt, fromFinder := t.mgr.finders.get(ck)
	if fromFinder {
		t.cacheServed = true
	} else {
		fetchedAt = t.mgr.now()
		fill := t.mgr.finders.StartFill()
		qctx, sp := obs.StartSpan(ctx, "slicache.query")
		res, err := t.mgr.loader.RunQuery(qctx, q)
		sp.End()
		t.accesses += max(res.Accesses, 1)
		if err != nil {
			t.mgr.finders.Drop(fill)
			return nil, err
		}
		persisted = res.Mems
		t.mgr.finders.put(fill, ck, q, res.Mems, fetchedAt)
	}
	for _, m := range persisted {
		if !fromFinder {
			// Freshly fetched rows warm the common store; cached-finder rows
			// do not re-enter it, which would misstate their age.
			t.mgr.common.Put(m)
		}
		if _, ok := t.entries[m.Key]; ok {
			continue // never overlay the transaction's own view
		}
		if fromFinder {
			t.finderSource[m.Key] = true
		}
		t.entries[m.Key] = &entry{
			version:   m.Version,
			current:   m,
			state:     stateClean,
			fetchedAt: fetchedAt,
		}
	}
	// Run the finder against the transient store.
	var out []memento.Memento
	for _, e := range t.entries {
		if e.state == stateRemoved || e.current.Key.Table != q.Table {
			continue
		}
		if q.Matches(e.current) {
			out = append(out, e.current.Clone())
		}
	}
	q.Sort(out)
	return out, nil
}

// Commit builds the commit set (before-image proofs plus after-images)
// and ships it to the validator. On success the new committed state is
// installed where the edge caches it: the common store takes each
// written bean's after-image, and every cached finder result the
// commit overlaps takes the after-images and removes under the finder
// cache's fill rule (FinderCache.Commit), the fill having been opened
// before the set was sent. On conflict every key the transaction
// touched is evicted, since the persistent state is known to have
// moved. A set with nothing to prove, or whose proofs its one store
// read already made, commits at the edge.
func (t *sliTx) Commit(ctx context.Context) error {
	if t.done {
		return sqlstore.ErrTxDone
	}
	t.done = true

	cs := t.buildCommitSet()
	if cs.IsEmpty() || t.provenByItsRead(cs) {
		t.mgr.stats.commits.Add(1)
		return nil
	}

	var fill *Fill
	if cs.Mutations() > 0 {
		fill = t.mgr.finders.StartFill()
	}
	cctx, sp := obs.StartSpan(ctx, "slicache.commit")
	outcome, err := t.mgr.loader.Commit(cctx, cs)
	sp.End()
	if err != nil {
		t.mgr.finders.Drop(fill)
		t.mgr.stats.conflicts.Add(1)
		obsConflicts.Inc()
		t.noteConflict(ctx, err)
		// Conservatively evict everything this transaction touched: at
		// least one entry is known stale.
		keys := make([]memento.Key, 0, len(t.entries))
		blind := make([]memento.WriteDesc, 0, len(t.entries))
		for k := range t.entries {
			keys = append(keys, k)
			blind = append(blind, memento.WriteDesc{Key: k})
		}
		t.mgr.common.Invalidate(keys...)
		// Same for cached finder results over those keys (blind, since the
		// winner's writes are unknown here) — otherwise a retry would be
		// served the very result set that just lost validation. The
		// winner's own notice handles everything else.
		t.mgr.finders.Invalidate(blind)
		return err
	}
	t.mgr.stats.commits.Add(1)

	// Install the committed after-images and evict removed beans — the
	// store sends this edge no notice for its own commit, so this is the
	// only place it is applied. A written bean whose new version the
	// reply did not carry is evicted, and blindly invalidates the finder
	// results over its table: its cached image is the pre-commit one.
	var (
		written []memento.Memento
		removed []memento.Key
		unknown []memento.WriteDesc
	)
	for _, e := range t.entries {
		switch e.state {
		case stateDirty, stateCreated:
			if v := outcome.NewVersions[e.current.Key]; v != 0 {
				m := e.current
				m.Version = v
				t.mgr.common.Refresh(m)
				written = append(written, m)
			} else {
				t.mgr.common.Invalidate(e.current.Key)
				unknown = append(unknown, memento.WriteDesc{Key: e.current.Key})
			}
		case stateRemoved:
			t.mgr.common.Invalidate(e.current.Key)
			removed = append(removed, e.current.Key)
		}
	}
	t.mgr.finders.Invalidate(unknown)
	if fill != nil {
		t.mgr.finders.Commit(fill, written, removed)
	}
	return nil
}

// provenByItsRead reports whether cs, a set that writes nothing, was
// read in full by one store access made inside this transaction: one
// miss fetch or one finder answered by one store. The store ran that
// access as one strict-2PL transaction, so the rows form a consistent
// snapshot at an instant within this transaction's lifetime, and the
// read-only transaction serialises there; validating them one round
// trip later could only re-prove freshness. A read the common store or
// the finder cache served, a second access, and a scatter over several
// shards all break the single instant, so those sets are validated.
// So is every PerStatement set: it is the paper's measured protocol.
func (t *sliTx) provenByItsRead(cs memento.CommitSet) bool {
	return cs.Mutations() == 0 && t.accesses == 1 && !t.cacheServed &&
		t.mgr.loader.Shipping() != PerStatement
}

// noteConflict records the forensics of a failed validation: a
// structured conflict event carrying the conflicting bean, the loser's
// read-version age, and the loser's trace paired with the winner's
// (when the error carries attribution — lock-timeout conflicts and
// unattributed stores do not).
func (t *sliTx) noteConflict(ctx context.Context, err error) {
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		return
	}
	trace := obs.TraceID(ctx)
	var readAge time.Duration
	if e, ok := t.entries[ce.Key]; ok && !e.fetchedAt.IsZero() {
		if readAge = t.mgr.now().Sub(e.fetchedAt); readAge < 0 {
			readAge = 0
		}
	}
	obs.DefaultEvents.Emit(obs.Event{
		Type:       obs.EventConflict,
		Op:         obs.Op(ctx),
		Bean:       ce.Key.Table,
		Key:        ce.Key.String(),
		Trace:      trace,
		OtherTrace: ce.WinnerTrace,
		Age:        readAge,
		Detail:     ce.Detail,
	})
	if t.finderSource[ce.Key] {
		// The losing read came from the finder-result cache: a stale
		// cached result survived to validation. Correctness held (the
		// commit aborted), but a clean run should never see this — it
		// means an invalidation was late or lost.
		obs.DefaultEvents.Emit(obs.Event{
			Type:       obs.EventStaleRead,
			Op:         obs.Op(ctx),
			Bean:       ce.Key.Table,
			Key:        ce.Key.String(),
			Trace:      trace,
			OtherTrace: ce.WinnerTrace,
			Age:        readAge,
			Detail:     "finder cache",
		})
	}
}

// Abort discards the per-transaction store. Cached common-store entries
// remain valid: they reflect committed state regardless of this
// transaction's fate.
func (t *sliTx) Abort(ctx context.Context) error {
	t.done = true
	t.entries = nil
	return nil
}

// buildCommitSet converts the per-transaction store into the wire-level
// commit set under the manager's origin, with deterministic ordering
// for reproducible validation.
func (t *sliTx) buildCommitSet() memento.CommitSet {
	cs := memento.CommitSet{Origin: t.mgr.origin}
	keys := make([]memento.Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Table != keys[j].Table {
			return keys[i].Table < keys[j].Table
		}
		return keys[i].ID < keys[j].ID
	})
	for _, k := range keys {
		e := t.entries[k]
		switch e.state {
		case stateClean:
			cs.Reads = append(cs.Reads, memento.ReadProof{Key: k, Version: e.version})
		case stateDirty:
			after := e.current
			after.Version = e.version
			cs.Writes = append(cs.Writes, after)
		case stateCreated:
			after := e.current
			after.Version = 0
			cs.Creates = append(cs.Creates, after)
		case stateRemoved:
			cs.Removes = append(cs.Removes, memento.ReadProof{Key: k, Version: e.version})
		}
	}
	return cs
}
