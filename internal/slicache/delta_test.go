package slicache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/storeapi"
)

// deltaValues are the cells an update's changed cells must keep bit for
// bit: both zeros, NaNs with distinct payloads, "" beside the zero
// Value, and one value of every kind, so that a pick of two is often a
// kind change.
var deltaValues = []memento.Value{
	{},
	memento.String(""), memento.String("x"),
	memento.Int(0), memento.Int(-1),
	memento.Float(0), memento.Float(math.Copysign(0, -1)), memento.Float(math.NaN()),
	memento.Float(math.Float64frombits(0x7ff8_0000_dead_beef)),
	memento.Bool(false), memento.Bool(true),
}

// deltaCase draws a before-image and an update of it: each field kept,
// changed to another of deltaValues, or (rarely) dropped, and sometimes
// a field added. One case in eight changes nothing at all.
func deltaCase(rng *rand.Rand) (before, after memento.Fields) {
	before, after = memento.Fields{}, memento.Fields{}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		before[fmt.Sprint("f", i)] = deltaValues[rng.Intn(len(deltaValues))]
	}
	same := rng.Intn(8) == 0
	for i := range len(before) {
		name := fmt.Sprint("f", i)
		v := before[name]
		switch r := rng.Intn(10); {
		case same || r < 4:
			after[name] = v
		case r == 9:
			// dropped: the update ships whole
		default:
			after[name] = deltaValues[rng.Intn(len(deltaValues))]
		}
	}
	if !same && rng.Intn(4) == 0 {
		after["added"] = deltaValues[rng.Intn(len(deltaValues))]
	}
	return before, after
}

// identicalFields is exact identity of two field maps as stored: the
// same names, and each value's kind and the payload it selects, floats
// by their bits.
func identicalFields(a, b memento.Fields) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		w, ok := b[name]
		if !ok {
			return false
		}
		v, w = v.Stored(), w.Stored()
		if v.Kind != w.Kind || v.Str != w.Str || v.Int != w.Int || v.Bool != w.Bool ||
			math.Float64bits(v.F) != math.Float64bits(w.F) {
			return false
		}
	}
	return true
}

// TestChangedCellsRebuildTheRowBitForBit: an update the edge ships as
// its changed cells reads back from the store bit for bit as the
// after-image the application stored, by every path a commit set takes
// to the store: the whole set to storeapi.Local, over dbwire, relayed by
// a back-end, as an ES/RDB statement batch, and through two-phase
// commit's Prepare. Random before- and after-images cover -0 and +0,
// NaN payloads, kind changes, "", updates that change nothing and
// updates that drop a field (which ship whole).
func TestChangedCellsRebuildTheRowBitForBit(t *testing.T) {
	w := newWireStore(t)
	be := backend.NewServer(w.client)
	if err := be.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.Close)
	relay := dbwire.Dial(be.Addr())
	t.Cleanup(func() { _ = relay.Close() })

	ctx := context.Background()
	paths := []struct {
		name string
		mgr  *Manager
	}{
		{"local", NewManager(storeapi.Local(w.store), WithShipping(WholeSet), WithFinderCache(false))},
		{"dbwire", NewManager(w.client, WithShipping(WholeSet), WithFinderCache(false))},
		{"back-end", NewManager(relay, WithShipping(WholeSet), WithFinderCache(false))},
		{"batch", NewManager(w.client, WithShipping(PerImage), WithFinderCache(false))},
		{"prepare", NewManager(w.client, WithShipping(WholeSet), WithFinderCache(false))},
	}
	for _, p := range paths {
		t.Cleanup(p.mgr.Close)
	}
	rng := rand.New(rand.NewSource(61))
	shipped := map[bool]int{}
	for i := 0; i < 200; i++ {
		for _, p := range paths {
			path, mgr := p.name, p.mgr
			before, after := deltaCase(rng)
			k := key(fmt.Sprintf("%s-%d", path, i))
			w.store.Seed(memento.Memento{Key: k, Fields: before})

			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Load(ctx, k); err != nil {
				t.Fatal(err)
			}
			if err := dt.Store(ctx, memento.Memento{Key: k, Fields: after}); err != nil {
				t.Fatal(err)
			}
			cs := dt.(*sliTx).buildCommitSet()
			if len(cs.Writes) != 1 {
				t.Fatalf("%s, case %d: commit set %+v, want one write", path, i, cs)
			}
			shipped[cs.Writes[0].Delta]++
			if path == "prepare" {
				gid := fmt.Sprint("g", i)
				err = w.client.Prepare(ctx, gid, cs)
				if err == nil {
					_, err = w.client.CommitPrepared(ctx, gid)
				}
				_ = dt.Abort(ctx)
			} else {
				err = dt.Commit(ctx)
			}
			if err != nil {
				t.Fatalf("%s, case %d: %v", path, i, err)
			}
			got, err := w.store.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalFields(got.Fields, after) {
				t.Fatalf("%s, case %d: %v over %v read back as %v", path, i, after, before, got.Fields)
			}
		}
	}
	// Both encodings were exercised: an update that keeps a cell ships
	// its changed cells, one that drops a field or changes them all goes
	// whole.
	if shipped[true] == 0 || shipped[false] == 0 {
		t.Errorf("shipped %d updates as changed cells and %d whole; want some of each", shipped[true], shipped[false])
	}
}
