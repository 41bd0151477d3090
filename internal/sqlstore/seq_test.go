package sqlstore

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"

	"edgeejb/internal/memento"
)

// TestRecreatedRowRejectsStaleProof: a row removed and created again is
// a new incarnation at a new version, so a read proof taken of the
// removed incarnation fails validation instead of matching the new one.
func TestRecreatedRowRejectsStaleProof(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	key := memento.Key{Table: "holding", ID: "h-u-1"}
	created, err := s.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{mem(key.Table, key.ID, 0, intFields(1))}})
	if err != nil {
		t.Fatal(err)
	}
	stale := created.NewVersions[key]
	if _, err := s.ApplyCommitSet(ctx, memento.CommitSet{Removes: []memento.ReadProof{{Key: key, Version: stale}}}); err != nil {
		t.Fatal(err)
	}
	again, err := s.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{mem(key.Table, key.ID, 0, intFields(2))}})
	if err != nil {
		t.Fatal(err)
	}
	if again.NewVersions[key] <= stale {
		t.Errorf("re-created row at v%d, not above its first incarnation's v%d", again.NewVersions[key], stale)
	}
	_, err = s.ApplyCommitSet(ctx, memento.CommitSet{Reads: []memento.ReadProof{{Key: key, Version: stale}}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale proof of the removed incarnation: err = %v, want ErrConflict", err)
	}
}

// TestRestoreNeverReissuesANumber: the commit counter survives a dump
// and restore, so a row removed before the dump and created after the
// restore takes a version above every version issued before the dump —
// also when the snapshot predates the recorded counter and the restore
// falls back to the highest row version.
func TestRestoreNeverReissuesANumber(t *testing.T) {
	ctx := context.Background()
	src := New()
	defer src.Close()
	src.Seed(mem("t", "keep", 0, intFields(1)), mem("t", "gone", 0, intFields(1)))
	for i := 0; i < 3; i++ {
		if _, err := src.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{mem("t", "gone", uint64(1+i), intFields(int64(i)))}}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := src.ApplyCommitSet(ctx, memento.CommitSet{Removes: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "gone"}, Version: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	issued := removed.Seq // the highest number issued before the dump
	var buf bytes.Buffer
	if err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// The same state as a snapshot without the counter: the surviving
	// row is at v1, below the removed row's last version.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Magic  string
		Tables []snapshotTable
	}{snapshotMagic, src.capture().Tables}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		snap  *bytes.Buffer
		above uint64
	}{
		{"recorded counter", &buf, issued},
		{"no counter", &old, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := New()
			defer dst.Close()
			if err := dst.Restore(tc.snap); err != nil {
				t.Fatal(err)
			}
			res, err := dst.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{mem("t", "gone", 0, intFields(9))}})
			if err != nil {
				t.Fatal(err)
			}
			if v := res.NewVersions[memento.Key{Table: "t", ID: "gone"}]; v <= tc.above {
				t.Errorf("re-created row at v%d, want above v%d", v, tc.above)
			}
		})
	}
}

// TestNoticeStreamOrder races every commit path — Tx.Commit,
// ApplyCommitSet, grouped ApplyCommitSets and Prepare+CommitPrepared —
// against one store with two subscribers, and checks that each stream
// is in commit order (Seq strictly increasing) and that each notice's
// Seq is the version of every row its After names: each write carries
// a tag, and the tag's commit reported the notice's Seq.
func TestNoticeStreamOrder(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	const rows, workers, rounds = 4, 4, 25
	for i := 0; i < rows; i++ {
		s.Seed(mem("t", fmt.Sprint(i), 0, intFields(0)))
	}
	a, cancelA := s.Subscribe(workers*rounds*2, 0)
	defer cancelA()
	b, cancelB := s.Subscribe(workers*rounds*2, 0)
	defer cancelB()

	var mu sync.Mutex
	seqOf := map[int64]uint64{} // write tag -> the Seq its commit reported
	record := func(seq uint64, tags ...int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, tag := range tags {
			seqOf[tag] = seq
		}
	}
	write := func(tag int64) memento.Memento {
		// The row tag writes, at version 0: Tx.Put ignores the version,
		// and the optimistic paths stamp the row's current one on it
		// first (current).
		return mem("t", fmt.Sprint(tag%rows), 0, intFields(tag))
	}
	current := func(m memento.Memento) memento.Memento {
		v, err := s.CurrentVersion(m.Key)
		if err != nil {
			t.Error(err)
		}
		m.Version = v
		return m
	}
	paths := []func(tag int64) error{
		func(tag int64) error {
			tx, err := s.Begin(ctx)
			if err != nil {
				return err
			}
			if err := tx.Put(ctx, write(tag)); err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			record(tx.Seq(), tag)
			return nil
		},
		func(tag int64) error {
			res, err := s.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{current(write(tag))}})
			if err == nil {
				record(res.Seq, tag)
			}
			return err
		},
		func(tag int64) error {
			sets := []memento.CommitSet{
				{Writes: []memento.Memento{current(write(tag))}},
				{Writes: []memento.Memento{current(write(tag + 1))}},
			}
			for i, r := range s.ApplyCommitSets(ctx, sets) {
				if r.Err == nil {
					record(r.Res.Seq, tag+int64(i))
				}
			}
			return nil
		},
		func(tag int64) error {
			gid := fmt.Sprint("g", tag)
			if err := s.Prepare(ctx, gid, memento.CommitSet{Writes: []memento.Memento{current(write(tag))}}); err != nil {
				return err
			}
			res, err := s.CommitPrepared(ctx, gid)
			if err == nil {
				record(res.Seq, tag)
			}
			return err
		},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tag := int64((w*rounds + r) * 2) // tag+1 is the group's second set
				if err := paths[(w+r)%len(paths)](tag); err != nil && !errors.Is(err, ErrConflict) {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	cancelA()
	cancelB()

	last := map[memento.Key]uint64{}
	for name, ch := range map[string]<-chan Notice{"a": a, "b": b} {
		var prev uint64
		n := 0
		for notice := range ch {
			n++
			if notice.Seq <= prev {
				t.Fatalf("stream %s: notice %d after %d, not in commit order", name, notice.Seq, prev)
			}
			prev = notice.Seq
			for _, w := range notice.Writes {
				if got := seqOf[w.After["v"].Int]; got != notice.Seq {
					t.Fatalf("stream %s: notice %d names %s written by commit %d", name, notice.Seq, w.Key, got)
				}
				last[w.Key] = notice.Seq
			}
		}
		if n != len(seqOf) {
			t.Errorf("stream %s carried %d notices, want one per commit (%d)", name, n, len(seqOf))
		}
	}
	for key, seq := range last {
		if v, _ := s.CurrentVersion(key); v != seq {
			t.Errorf("%s at v%d, want the Seq of the last notice naming it, %d", key, v, seq)
		}
	}
}
