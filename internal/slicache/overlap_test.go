package slicache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// The fields and values of overlapModel's rows: few enough that random
// queries often match, with 0 and -0, which are Equal but not the same
// cell.
var (
	overlapFields = []string{"a", "b", "c"}
	overlapValues = []memento.Value{
		memento.Int(0), memento.Int(1), memento.String("x"),
		memento.Float(0), memento.Float(math.Copysign(0, -1)),
	}
)

// overlapModel drives random creates, updates and removes, one a
// commit, into a store and hears each commit's notice through a dbwire
// subscription, as an edge with a finder cache does.
type overlapModel struct {
	rng     *rand.Rand
	store   *sqlstore.Store
	notices <-chan sqlstore.Notice
	rows    map[string]memento.Fields
}

func (m *overlapModel) randFields() memento.Fields {
	f := memento.Fields{}
	for _, name := range overlapFields {
		if m.rng.Intn(3) > 0 {
			f[name] = overlapValues[m.rng.Intn(len(overlapValues))]
		}
	}
	return f
}

// randQuery is a conjunction of 0 to 3 equalities.
func (m *overlapModel) randQuery() memento.Query {
	q := memento.Query{Table: "t"}
	for range m.rng.Intn(4) {
		q.Where = append(q.Where, memento.Where(overlapFields[m.rng.Intn(len(overlapFields))], overlapValues[m.rng.Intn(len(overlapValues))]))
	}
	return q
}

// result is q's result set over the model's rows, as a finder returns it.
func (m *overlapModel) result(q memento.Query) []memento.Memento {
	var out []memento.Memento
	for id, f := range m.rows {
		if mem := (memento.Memento{Key: memento.Key{Table: "t", ID: id}, Fields: f}); q.Matches(mem) {
			out = append(out, mem)
		}
	}
	q.Sort(out)
	return out
}

// sameResult reports whether two result sets hold the same rows with
// the same cells, floats by their bits.
func sameResult(a, b []memento.Memento) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Fields) != len(b[i].Fields) {
			return false
		}
		for name, v := range a[i].Fields {
			w, ok := b[i].Fields[name]
			if !ok || v.Kind != w.Kind || v.Str != w.Str || v.Int != w.Int || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

// step commits one random write and returns its full-image descriptor,
// the notice the subscription heard for it, and whether it was an
// update that changed no cell.
func (m *overlapModel) step(ctx context.Context) (full memento.WriteDesc, heard sqlstore.Notice, noop bool, err error) {
	id := fmt.Sprintf("r%d", m.rng.Intn(8))
	full.Key = memento.Key{Table: "t", ID: id}
	prev, exists := m.rows[id]
	tx, err := m.store.Begin(ctx)
	if err != nil {
		return full, heard, false, err
	}
	switch {
	case exists && m.rng.Intn(4) == 0:
		full.Removed = true
		delete(m.rows, id)
		err = tx.Delete(ctx, "t", id)
	default:
		f := m.randFields()
		if exists && m.rng.Intn(4) == 0 {
			f, noop = prev.Clone(), true
		}
		full.After = f.Clone()
		m.rows[id] = f.Clone()
		err = tx.Put(ctx, memento.Memento{Key: full.Key, Fields: f})
	}
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		tx.Abort()
		return full, heard, false, err
	}
	select {
	case heard = <-m.notices:
	case <-time.After(5 * time.Second):
		return full, heard, false, fmt.Errorf("no notice for the write of %s", id)
	}
	if len(heard.Writes) != 1 || heard.Writes[0].Key != full.Key {
		return full, heard, false, fmt.Errorf("notice %v for the write of %s", heard.Writes, id)
	}
	return full, heard, noop, nil
}

// TestChangedCellNoticesEvictWhatImagesDo: a store's notice of an update
// carries only the cells it changed, and the finder cache's overlap
// test must still evict every cached result the write changed. Random
// tables, conjunctive queries of 0–3 predicates and random creates,
// updates and removes run through a store whose notices are heard over
// dbwire; whenever a full-image notice shows that a query's result set
// changed (rows in or out, or a row's cells), the changed-cell notice
// must overlap that result too. An update that changes
// nothing arrives as an empty image, not a blind write, and evicts only
// the results that hold its key.
func TestChangedCellNoticesEvictWhatImagesDo(t *testing.T) {
	ctx := context.Background()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client := dbwire.Dial(srv.Addr())
	t.Cleanup(func() { _ = client.Close() })
	notices, cancel, err := client.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cancel)

	var evictions, noops int
	for seed := int64(1); seed <= 40; seed++ {
		// Each seed starts from an empty table: remove what the last left.
		m := &overlapModel{rng: rand.New(rand.NewSource(seed)), store: store, notices: notices, rows: map[string]memento.Fields{}}
		if err := clearTable(ctx, store, notices); err != nil {
			t.Fatal(err)
		}
		for i := range 60 {
			queries := make([]memento.Query, 8)
			before := make([][]memento.Memento, len(queries))
			for j := range queries {
				queries[j] = m.randQuery()
				before[j] = m.result(queries[j])
			}
			full, heard, noop, err := m.step(ctx)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			w := heard.Writes[0]
			if w.Blind() {
				t.Fatalf("seed %d step %d: the write of %s arrived blind", seed, i, w.Key)
			}
			if noop {
				noops++
				if w.After == nil || len(w.After) != 0 {
					t.Fatalf("seed %d step %d: a write that changed nothing arrived as %v", seed, i, w.After)
				}
			}
			for j, q := range queries {
				rows := before[j]
				evicts := q.Overlaps(rows, heard.Writes)
				holds := slices.ContainsFunc(rows, func(r memento.Memento) bool { return r.Key == w.Key })
				if noop && evicts != holds {
					t.Fatalf("seed %d step %d: %s over %s: a write of %s that changed nothing evicts = %v", seed, i, q, rowVersions(rows), w.Key, evicts)
				}
				if sameResult(rows, m.result(q)) {
					continue
				}
				if !q.Overlaps(rows, []memento.WriteDesc{full}) {
					t.Fatalf("seed %d step %d: %s changed, but the full image %v does not overlap it", seed, i, q, full)
				}
				if !evicts {
					t.Fatalf("seed %d step %d: %s changed under the write of %s, but its changed cells %v do not evict it", seed, i, q, w.Key, w.After)
				}
				evictions++
			}
		}
	}
	if evictions == 0 || noops == 0 {
		t.Fatalf("the random writes changed %d cached results and made %d no-op updates; want both", evictions, noops)
	}
}

// clearTable removes every row of table t in one commit and drains its
// notice, if it sent one.
func clearTable(ctx context.Context, store *sqlstore.Store, notices <-chan sqlstore.Notice) error {
	tx, err := store.Begin(ctx)
	if err != nil {
		return err
	}
	rows, err := tx.Query(ctx, memento.Query{Table: "t"})
	if err == nil {
		for _, r := range rows {
			if err = tx.Delete(ctx, "t", r.Key.ID); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		tx.Abort()
		return err
	}
	if len(rows) > 0 {
		select {
		case <-notices:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no notice for the clearing commit")
		}
	}
	return nil
}
