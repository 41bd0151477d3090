package slicache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// Model-based testing: random sequences of operations from two
// interleaved transactions (on two cache managers sharing one store, as
// two edge servers would) are executed both against the real stack and
// against a tiny reference model implementing the paper's semantics
// directly. Divergence in any read value, finder result, or commit
// outcome fails the test.

// modelRow is the model's committed state for one key.
type modelRow struct {
	value   int64
	version uint64
}

// model is the authoritative reference: committed rows by ID, the IDs
// the manager's common store holds, which decide whether a read is a
// store access or a cache serve, and the store's commit counter, whose
// number every row a commit writes takes as its version.
type model struct {
	rows   map[string]modelRow
	cached map[string]bool
	seq    uint64
}

func newModel() *model {
	return &model{rows: make(map[string]modelRow), cached: make(map[string]bool)}
}

// modelTx mirrors the per-transaction transient store semantics.
type modelTx struct {
	// readVersions records the version first observed per key (0 +
	// absent=false for creates).
	readVersions map[string]uint64
	// view is the transaction's working state; nil pointer = removed.
	view    map[string]*int64
	created map[string]bool
	removed map[string]bool
	dirty   map[string]bool
	// accesses counts the store reads made; cacheServed is set once the
	// common store or the finder cache answers a read.
	accesses    int
	cacheServed bool
}

func newModelTx() *modelTx {
	return &modelTx{
		readVersions: make(map[string]uint64),
		view:         make(map[string]*int64),
		created:      make(map[string]bool),
		removed:      make(map[string]bool),
		dirty:        make(map[string]bool),
	}
}

// load returns (value, found). Mirrors sliTx.Load against the model.
func (t *modelTx) load(m *model, id string) (int64, bool) {
	if v, ok := t.view[id]; ok {
		if v == nil {
			return 0, false
		}
		return *v, true
	}
	if m.cached[id] {
		t.cacheServed = true
	} else {
		t.accesses++
	}
	row, ok := m.rows[id]
	if !ok {
		return 0, false
	}
	m.cached[id] = true
	t.readVersions[id] = row.version
	val := row.value
	t.view[id] = &val
	return row.value, true
}

// store updates a loaded/created bean; returns false if not active.
func (t *modelTx) store(id string, value int64) bool {
	v, ok := t.view[id]
	if !ok || v == nil {
		return false
	}
	*v = value
	if !t.created[id] {
		t.dirty[id] = true
	}
	return true
}

// create returns false if the bean already exists in the transaction's
// view or (fast-fail like the cache) in committed state.
func (t *modelTx) create(m *model, id string, value int64) bool {
	if v, ok := t.view[id]; ok && v != nil {
		return false
	}
	if wasRemoved := t.view[id] == nil && t.removed[id]; wasRemoved {
		val := value
		t.view[id] = &val
		t.removed[id] = false
		t.dirty[id] = true
		// Re-creation after remove: stays a write against the old
		// version (readVersions already holds it).
		return true
	}
	if _, committed := m.rows[id]; committed {
		// The real cache fast-fails only when the row is in the common
		// store; our serial model always "knows" committed state, and in
		// these serial tests the common store does too (loads/queries
		// populate it and invalidation is off, with refresh on commit),
		// except for rows the OTHER manager created. To stay faithful we
		// fail fast only if this manager could know; the harness below
		// shares one store between managers, so knowledge may lag. We
		// therefore avoid generating creates for known-committed IDs in
		// the generator instead of modeling fast-fail here.
		return false
	}
	val := value
	t.view[id] = &val
	t.created[id] = true
	return true
}

// remove returns false if the bean is not loadable.
func (t *modelTx) remove(m *model, id string) bool {
	if v, ok := t.view[id]; ok {
		if v == nil {
			return false
		}
		if t.created[id] {
			delete(t.view, id)
			delete(t.created, id)
			delete(t.dirty, id)
			return true
		}
		t.view[id] = nil
		t.removed[id] = true
		delete(t.dirty, id)
		return true
	}
	if _, ok := t.load(m, id); !ok {
		return false
	}
	t.view[id] = nil
	t.removed[id] = true
	return true
}

// queryAllIDs mirrors the finder: committed rows plus the transaction's
// view overlay, sorted by ID (handled by caller comparing sets). A
// finder the finder cache answered (finderHit) is a cache serve, not a
// store access, so it does not prove a read-only transaction.
func (t *modelTx) queryAllIDs(m *model, finderHit bool) map[string]int64 {
	if finderHit {
		t.cacheServed = true
	} else {
		t.accesses++
	}
	out := make(map[string]int64)
	for id, row := range m.rows {
		out[id] = row.value
		m.cached[id] = true
	}
	// Record read versions for rows the finder surfaces and the
	// transaction has not yet seen (they enter the read set).
	for id, row := range m.rows {
		if _, seen := t.view[id]; !seen {
			t.readVersions[id] = row.version
			val := row.value
			t.view[id] = &val
		}
	}
	// Overlay the transaction's own view.
	for id, v := range t.view {
		if v == nil {
			delete(out, id)
		} else {
			out[id] = *v
		}
	}
	return out
}

// commit validates against the model and applies on success.
func (t *modelTx) commit(m *model) bool {
	if !t.writes() && t.accesses == 1 && !t.cacheServed {
		// Everything read came from one store access, and the load and
		// query steps checked it against committed state at that access:
		// the transaction serialises there, with nothing left to prove.
		return true
	}
	if !t.valid(m) {
		// A lost validation evicts everything the transaction touched.
		for id := range t.view {
			delete(m.cached, id)
		}
		return false
	}
	// Apply: only mutations reach the store — clean reads were proofs.
	// Committed after-images stay cached; removed rows leave the cache.
	if t.writes() {
		m.seq++
	}
	for id, v := range t.view {
		switch {
		case t.removed[id] && v == nil:
			delete(m.rows, id)
			delete(m.cached, id)
		case v != nil && (t.created[id] || t.dirty[id]):
			m.rows[id] = modelRow{value: *v, version: m.seq}
			m.cached[id] = true
		}
	}
	return true
}

// valid checks every read, write and remove proof and every create.
func (t *modelTx) valid(m *model) bool {
	for id, ver := range t.readVersions {
		row, ok := m.rows[id]
		if t.removed[id] || !t.created[id] {
			// read, write or remove proof
			if !ok || row.version != ver {
				return false
			}
		}
	}
	for id := range t.created {
		if _, ok := m.rows[id]; ok {
			return false
		}
	}
	return true
}

// writes reports whether the transaction mutates anything.
func (t *modelTx) writes() bool {
	if len(t.dirty) > 0 || len(t.created) > 0 {
		return true
	}
	for _, removed := range t.removed {
		if removed {
			return true
		}
	}
	return false
}

// opKind enumerates generated operations.
type opKind int

const (
	opLoad opKind = iota
	opStore
	opCreate
	opRemove
	opQuery
	opCommit
	opAbort
)

// TestModelEquivalenceProperty runs the model against a manager with the
// finder cache off, the paper's protocol, and with it on.
func TestModelEquivalenceProperty(t *testing.T) {
	for name, finderCache := range map[string]bool{"paper": false, "finder-cache": true} {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				return runModelTrial(t, seed, finderCache)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// runModelTrial executes one random interleaving and reports whether the
// real stack matched the model throughout.
func runModelTrial(t *testing.T, seed int64, finderCache bool) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	store := sqlstore.New()
	defer store.Close()
	m := newModel()
	// Seed a few rows.
	nSeed := rng.Intn(5)
	for i := 0; i < nSeed; i++ {
		id := fmt.Sprintf("k%d", i)
		val := rng.Int63n(100)
		store.Seed(memento.Memento{
			Key:    memento.Key{Table: "t", ID: id},
			Fields: memento.Fields{"v": memento.Int(val)},
		})
		m.seq++ // each Seed is a commit
		m.rows[id] = modelRow{value: val, version: m.seq}
	}

	// One manager, two interleaved transactions. A single manager's
	// common store is always coherent with committed state in a serial
	// interleaving (commits refresh it, conflicts and removals evict),
	// so the model needs only which IDs it holds, to tell a store access
	// from a cache serve at commit. Cross-manager staleness —
	// where a real cache legitimately serves outdated values until
	// commit validation catches it — is covered by the directed
	// invalidation tests instead; a model for it would have to replicate
	// the cache itself. The manager is never started, so it never
	// subscribes and no eviction arrives asynchronously.
	mgr := NewManager(storeapi.Local(store), WithFinderCache(finderCache))
	defer mgr.Close()

	type liveTx struct {
		dt    component.DataTx
		model *modelTx
	}
	live := make(map[int]*liveTx) // two interleaved transaction slots

	keyOf := func(id string) memento.Key { return memento.Key{Table: "t", ID: id} }
	randomID := func() string { return fmt.Sprintf("k%d", rng.Intn(8)) }

	steps := 10 + rng.Intn(60)
	for s := 0; s < steps; s++ {
		mi := rng.Intn(2)
		tx := live[mi]
		if tx == nil {
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Logf("seed %d: begin: %v", seed, err)
				return false
			}
			tx = &liveTx{dt: dt, model: newModelTx()}
			live[mi] = tx
		}

		switch kind := opKind(rng.Intn(7)); kind {
		case opLoad:
			id := randomID()
			got, err := tx.dt.Load(ctx, keyOf(id))
			wantVal, wantOK := tx.model.load(m, id)
			if wantOK != (err == nil) {
				t.Logf("seed %d step %d: load %s found=%v want %v (err=%v)", seed, s, id, err == nil, wantOK, err)
				return false
			}
			if err == nil && got.Fields["v"].Int != wantVal {
				t.Logf("seed %d step %d: load %s = %d, want %d", seed, s, id, got.Fields["v"].Int, wantVal)
				return false
			}

		case opStore:
			id := randomID()
			val := rng.Int63n(100)
			// Only meaningful after a load; mirror the model's rule.
			wantOK := tx.model.store(id, val)
			err := tx.dt.Store(ctx, memento.Memento{
				Key:    keyOf(id),
				Fields: memento.Fields{"v": memento.Int(val)},
			})
			if wantOK != (err == nil) {
				t.Logf("seed %d step %d: store %s ok=%v want %v (err=%v)", seed, s, id, err == nil, wantOK, err)
				return false
			}

		case opCreate:
			// Avoid IDs with committed rows (see modelTx.create comment);
			// use a distinct namespace sometimes colliding within it.
			id := fmt.Sprintf("new%d", rng.Intn(4))
			if _, committed := m.rows[id]; committed {
				continue
			}
			val := rng.Int63n(100)
			wantOK := tx.model.create(m, id, val)
			err := tx.dt.Create(ctx, memento.Memento{
				Key:    keyOf(id),
				Fields: memento.Fields{"v": memento.Int(val)},
			})
			if wantOK != (err == nil) {
				t.Logf("seed %d step %d: create %s ok=%v want %v (err=%v)", seed, s, id, err == nil, wantOK, err)
				return false
			}

		case opRemove:
			id := randomID()
			wantOK := tx.model.remove(m, id)
			err := tx.dt.Remove(ctx, keyOf(id))
			if wantOK != (err == nil) {
				t.Logf("seed %d step %d: remove %s ok=%v want %v (err=%v)", seed, s, id, err == nil, wantOK, err)
				return false
			}

		case opQuery:
			hits := mgr.Stats().Finders.Hits
			got, err := tx.dt.Query(ctx, memento.Query{Table: "t"})
			if err != nil {
				t.Logf("seed %d step %d: query: %v", seed, s, err)
				return false
			}
			want := tx.model.queryAllIDs(m, mgr.Stats().Finders.Hits > hits)
			if len(got) != len(want) {
				t.Logf("seed %d step %d: query size %d want %d", seed, s, len(got), len(want))
				return false
			}
			for _, gm := range got {
				wv, ok := want[gm.Key.ID]
				if !ok || gm.Fields["v"].Int != wv {
					t.Logf("seed %d step %d: query row %s = %d want %d (present=%v)",
						seed, s, gm.Key.ID, gm.Fields["v"].Int, wv, ok)
					return false
				}
			}

		case opCommit:
			err := tx.dt.Commit(ctx)
			wantOK := tx.model.commit(m)
			delete(live, mi)
			if wantOK != (err == nil) {
				t.Logf("seed %d step %d: commit ok=%v want %v (err=%v)", seed, s, err == nil, wantOK, err)
				return false
			}
			if err != nil && !errors.Is(err, sqlstore.ErrConflict) {
				t.Logf("seed %d step %d: commit failed with non-conflict %v", seed, s, err)
				return false
			}

		case opAbort:
			if err := tx.dt.Abort(ctx); err != nil {
				t.Logf("seed %d step %d: abort: %v", seed, s, err)
				return false
			}
			delete(live, mi)
		}
	}
	// Final: commit or abort leftovers, then compare committed state.
	for mi, tx := range live {
		err := tx.dt.Commit(ctx)
		wantOK := tx.model.commit(m)
		if wantOK != (err == nil) {
			t.Logf("seed %d: final commit mgr %d ok=%v want %v (err=%v)", seed, mi, err == nil, wantOK, err)
			return false
		}
	}
	// Committed store state must equal the model.
	conn := storeapi.Local(store)
	scan, err := conn.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Logf("seed %d: final scan: %v", seed, err)
		return false
	}
	rows := scan.Mems
	if len(rows) != len(m.rows) {
		t.Logf("seed %d: final row count %d want %d", seed, len(rows), len(m.rows))
		return false
	}
	for _, r := range rows {
		want, ok := m.rows[r.Key.ID]
		if !ok || r.Fields["v"].Int != want.value || r.Version != want.version {
			t.Logf("seed %d: final row %s = (%d, v%d), want (%d, v%d)",
				seed, r.Key.ID, r.Fields["v"].Int, r.Version, want.value, want.version)
			return false
		}
	}
	return true
}
