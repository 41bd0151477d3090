package sqlstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"edgeejb/internal/memento"
)

// The values a written row may hold: a zero-kind value, both zeros, a
// NaN, and values of every kind that share a payload with another kind.
var rowValues = []memento.Value{
	{},
	memento.String(""), memento.String("x"),
	memento.Int(0), memento.Int(1),
	memento.Float(0), memento.Float(math.Copysign(0, -1)), memento.Float(math.NaN()), memento.Float(1),
	memento.Bool(false), memento.Bool(true),
}

// sameValue is exact identity: every payload field equal, floats by
// their bits, so NaN is itself and -0 is not 0.
func sameValue(a, b memento.Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && a.Int == b.Int && a.Bool == b.Bool &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameFields reports whether got is exactly want, nil-ness included.
func sameFields(got, want memento.Fields) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !sameValue(g, w) {
			return false
		}
	}
	return true
}

// scribble mutates a field map in place, if it has one.
func scribble(f memento.Fields) {
	if f == nil {
		return
	}
	for k := range f {
		f[k] = memento.Int(-7)
	}
	f["scribbled"] = memento.Bool(true)
}

// storedRow is what the model says row holds.
type storedRow struct {
	version uint64
	fields  memento.Fields
}

// rowModel drives one store through random writes and checks every read
// against what was written.
type rowModel struct {
	ctx     context.Context
	rng     *rand.Rand
	s       *Store
	notices <-chan Notice
	cancel  func()
	rows    map[string]storedRow
	late    bool // whether rows may carry the late field yet
	// last is the latest notice and want its After images, held so a
	// later scribble over the rows read back can be seen to miss it.
	last Notice
	want map[string]memento.Fields
}

// changedCells is what a notice's After must hold for a write of f over
// prev: the fields of f that prev does not hold identically, in a map
// that is empty, never nil, when there are none.
func changedCells(prev, f memento.Fields) memento.Fields {
	out := memento.Fields{}
	for name, v := range f {
		if p, ok := prev[name]; !ok || !sameValue(p, v) {
			out[name] = v
		}
	}
	return out
}

// laidOver is prev with the cells of after laid over it and the fields
// next lacks taken out: a cell map cannot name a dropped field, so an
// update's After says nothing of one.
func laidOver(prev, after, next memento.Fields) memento.Fields {
	out := prev.Clone()
	if out == nil {
		out = memento.Fields{}
	}
	for name, v := range after {
		out[name] = v
	}
	for name := range out {
		if _, ok := next[name]; !ok {
			delete(out, name)
		}
	}
	return out
}

const rowTable = "t"

func (m *rowModel) subscribe() {
	m.notices, m.cancel = m.s.Subscribe(1024, 0)
}

func (m *rowModel) randID() string { return fmt.Sprintf("r%02d", m.rng.Intn(12)) }

// randFields returns a fresh field map: nil, empty, or a random subset
// of the table's fields. The field "late" first appears once m.late is
// set, so the column list grows after rows exist.
func (m *rowModel) randFields() memento.Fields {
	switch m.rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return memento.Fields{}
	}
	names := []string{"a", "b", "c", "d"}
	if m.late {
		names = append(names, "late")
	}
	f := memento.Fields{}
	for _, n := range names {
		if m.rng.Intn(3) > 0 {
			f[n] = rowValues[m.rng.Intn(len(rowValues))]
		}
	}
	return f
}

// committed records a commit's writes in the model, checks the notice
// it sent, and then scribbles over the caller's maps, which the store
// and the notice must not share. A created row's After must be its
// whole image; an updated row's, exactly the cells that differ from the
// row it replaced, and that row with them laid over it must be the new
// one.
func (m *rowModel) committed(seq uint64, written map[string]memento.Fields, removed map[string]bool) error {
	want := make(map[string]memento.Fields, len(written))
	prevs := map[string]memento.Fields{}
	for id, f := range written {
		want[id] = f.Clone()
		if prev, updated := m.rows[id]; updated {
			prevs[id] = prev.fields
			want[id] = changedCells(prev.fields, f)
		}
		m.rows[id] = storedRow{version: seq, fields: f.Clone()}
	}
	for id := range removed {
		delete(m.rows, id)
	}
	var n Notice
	select {
	case n = <-m.notices:
	default:
		return fmt.Errorf("commit %d sent no notice", seq)
	}
	for _, f := range written {
		scribble(f)
	}
	if n.Seq != seq || len(n.Writes) != len(written)+len(removed) {
		return fmt.Errorf("notice %d names %d writes, want commit %d with %d", n.Seq, len(n.Writes), seq, len(written)+len(removed))
	}
	for _, w := range n.Writes {
		if w.Removed != removed[w.Key.ID] {
			return fmt.Errorf("notice marks %s removed=%v", w.Key, w.Removed)
		}
		prev, updated := prevs[w.Key.ID]
		if !updated {
			continue
		}
		// changedCells(nil, f) is f as a map that is never nil, as the
		// row laid over is.
		if f := m.rows[w.Key.ID].fields; !sameFields(laidOver(prev, w.After, f), changedCells(nil, f)) {
			return fmt.Errorf("notice %d: After %v laid over %s's %v is %v, want %v", n.Seq, w.After, w.Key, prev, laidOver(prev, w.After, f), f)
		}
	}
	m.last, m.want = n, want
	return m.checkNotice()
}

// checkNotice compares the latest notice's After images with what was
// written.
func (m *rowModel) checkNotice() error {
	for _, w := range m.last.Writes {
		if !w.Removed && !sameFields(w.After, m.want[w.Key.ID]) {
			return fmt.Errorf("notice %d After for %s = %v, want %v", m.last.Seq, w.Key, w.After, m.want[w.Key.ID])
		}
	}
	return nil
}

func (m *rowModel) step() error {
	switch op := m.rng.Intn(6); op {
	case 0: // Seed a batch; the caller's maps are scribbled over after.
		batch := make([]memento.Memento, 1+m.rng.Intn(3))
		for i := range batch {
			batch[i] = memento.Memento{Key: memento.Key{Table: rowTable, ID: m.randID()}, Fields: m.randFields()}
		}
		m.s.Seed(batch...)
		seq := m.s.seq
		for _, b := range batch {
			m.rows[b.Key.ID] = storedRow{version: seq, fields: b.Fields.Clone()}
		}
		for _, b := range batch {
			scribble(b.Fields)
		}
	case 1, 2: // Put, or Insert where the row is absent, then Commit.
		tx, err := m.s.Begin(m.ctx)
		if err != nil {
			return err
		}
		id, f := m.randID(), m.randFields()
		row := memento.Memento{Key: memento.Key{Table: rowTable, ID: id}, Fields: f}
		if _, exists := m.rows[id]; !exists && op == 2 {
			err = tx.Insert(m.ctx, row)
		} else {
			err = tx.Put(m.ctx, row)
		}
		if err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		return m.committed(tx.Seq(), map[string]memento.Fields{id: f}, nil)
	case 3: // Delete a row.
		id := m.randID()
		if _, exists := m.rows[id]; !exists {
			return nil
		}
		tx, err := m.s.Begin(m.ctx)
		if err != nil {
			return err
		}
		if err := tx.Delete(m.ctx, rowTable, id); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		return m.committed(tx.Seq(), nil, map[string]bool{id: true})
	case 4: // One or two commit sets: writes over rows, creates of new ones.
		sets := make([]memento.CommitSet, 1+m.rng.Intn(2))
		written := make([]map[string]memento.Fields, len(sets))
		used := map[string]bool{}
		for i := range sets {
			written[i] = map[string]memento.Fields{}
			for range 1 + m.rng.Intn(2) {
				id := m.randID()
				if used[id] {
					continue
				}
				used[id] = true
				f := m.randFields()
				written[i][id] = f
				mem := memento.Memento{Key: memento.Key{Table: rowTable, ID: id}, Fields: f}
				if r, exists := m.rows[id]; exists {
					mem.Version = r.version
					sets[i].Writes = append(sets[i].Writes, mem)
				} else {
					sets[i].Creates = append(sets[i].Creates, mem)
				}
			}
		}
		for i := range sets {
			res, err := m.s.ApplyCommitSet(m.ctx, sets[i])
			if err != nil {
				return err
			}
			if len(written[i]) == 0 {
				continue // an empty set commits nothing and sends no notice
			}
			if err := m.committed(res.Seq, written[i], nil); err != nil {
				return err
			}
		}
	case 5: // Dump, check the snapshot's rows, and go on from a restored store.
		var buf bytes.Buffer
		if err := m.s.Dump(&buf); err != nil {
			return err
		}
		_, _, tables, err := readSnapshot(buf.Bytes())
		if err != nil {
			return err
		}
		dumped := 0
		for name, st := range tables {
			for id, row := range st.rows {
				r := st.memento(name, id, row)
				want, ok := m.rows[id]
				if name != rowTable || !ok || r.Version != want.version || !sameFields(r.Fields, want.fields) {
					return fmt.Errorf("Dump holds %s@v%d %v, want %v", r.Key, r.Version, r.Fields, want)
				}
				dumped++
			}
		}
		if dumped != len(m.rows) {
			return fmt.Errorf("Dump holds %d rows, want %d", dumped, len(m.rows))
		}
		restored := New()
		if err := restored.Restore(&buf); err != nil {
			return err
		}
		m.cancel()
		m.s.Close()
		m.s = restored
		m.subscribe()
	}
	return nil
}

// check reads every row back with Get, a full scan and every
// single-field probe, compares each with the model, and scribbles over
// what it read, which must change nothing the store holds.
func (m *rowModel) check() error {
	tx, err := m.s.Begin(m.ctx)
	if err != nil {
		return err
	}
	defer tx.Abort()
	for i := range 12 {
		id := fmt.Sprintf("r%02d", i)
		got, err := tx.Get(m.ctx, rowTable, id)
		want, ok := m.rows[id]
		if !ok {
			if !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("Get %s of a missing row: %v", id, err)
			}
			continue
		}
		if err != nil {
			return err
		}
		if got.Version != want.version || !sameFields(got.Fields, want.fields) {
			return fmt.Errorf("Get %s = v%d %v, want v%d %v", id, got.Version, got.Fields, want.version, want.fields)
		}
		scribble(got.Fields)
	}
	queries := []memento.Query{{Table: rowTable}}
	for _, field := range []string{"a", "b", "c", "late", "never"} {
		for _, v := range rowValues {
			queries = append(queries, memento.Query{Table: rowTable, Where: []memento.Predicate{memento.Where(field, v)}})
		}
	}
	queries = append(queries, memento.Query{Table: rowTable, Where: []memento.Predicate{
		memento.Where("c", rowValues[m.rng.Intn(len(rowValues))]),
		memento.Where("a", rowValues[m.rng.Intn(len(rowValues))]),
	}})
	for _, q := range queries {
		var want []string
		for id, r := range m.rows {
			if q.Matches(memento.Memento{Key: memento.Key{Table: rowTable, ID: id}, Fields: r.fields}) {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		got, err := tx.Query(m.ctx, q)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s returned %d rows, want %v", q, len(got), want)
		}
		for i, g := range got {
			r := m.rows[want[i]]
			if g.Key.ID != want[i] || g.Version != r.version || !sameFields(g.Fields, r.fields) {
				return fmt.Errorf("%s row %d = %s@v%d %v, want %s@v%d %v", q, i, g.Key, g.Version, g.Fields, want[i], r.version, r.fields)
			}
			scribble(g.Fields)
		}
	}
	return m.checkNotice()
}

// TestRowsRoundTripProperty writes random field maps through every
// write path (Seed, Put, Insert, ApplyCommitSet(s), Dump then Restore)
// and checks that every read (Get, Query, Dump, a notice's After)
// returns exactly what was written: zero-kind values, NaN and -0 floats
// and nil and empty maps included, with a field that first appears in
// later rows and indexes created both before and after the rows that
// carry their field. A probe of an indexed field must return what the
// model's scan does, and no one's map — the caller's input after
// commit, a returned row — is shared with the store or a notice.
func TestRowsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := &rowModel{ctx: context.Background(), rng: rand.New(rand.NewSource(seed)), s: New(), rows: map[string]storedRow{}}
		defer func() {
			m.cancel()
			m.s.Close()
		}()
		m.subscribe()
		// "late" is indexed before any row carries it, "b" after rows do.
		for _, field := range []string{"a", "late"} {
			if err := m.s.CreateIndex(rowTable, field); err != nil {
				t.Fatal(err)
			}
		}
		const steps = 40
		for i := range steps {
			if i == steps/3 {
				if err := m.s.CreateIndex(rowTable, "b"); err != nil {
					t.Fatal(err)
				}
			}
			m.late = i >= steps/2
			if err := m.step(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			if err := m.check(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		if m.s.Stats().IndexProbes == 0 {
			t.Logf("seed %d: no query probed an index", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
