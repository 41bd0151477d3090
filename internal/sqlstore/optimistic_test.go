package sqlstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edgeejb/internal/memento"
)

func TestApplyCommitSetHappyPath(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(
		mem("t", "r", 0, intFields(1)),
		mem("t", "w", 0, intFields(1)),
		mem("t", "d", 0, intFields(1)),
	)

	cs := memento.CommitSet{
		Reads:   []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "r"}, Version: 1}},
		Writes:  []memento.Memento{mem("t", "w", 1, intFields(2))},
		Creates: []memento.Memento{mem("t", "c", 0, intFields(3))},
		Removes: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "d"}, Version: 1}},
	}
	res, err := s.ApplyCommitSet(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	// The seed was commit 1, so this set is commit 2: every row it puts,
	// written or created, carries that number.
	if res.Seq != 2 {
		t.Errorf("Seq = %d, want 2", res.Seq)
	}
	if got := res.NewVersions[memento.Key{Table: "t", ID: "w"}]; got != res.Seq {
		t.Errorf("write new version = %d, want %d", got, res.Seq)
	}
	if got := res.NewVersions[memento.Key{Table: "t", ID: "c"}]; got != res.Seq {
		t.Errorf("create new version = %d, want %d", got, res.Seq)
	}
	if v, _ := s.CurrentVersion(memento.Key{Table: "t", ID: "w"}); v != res.Seq {
		t.Errorf("committed write version = %d, want %d", v, res.Seq)
	}
	if v, _ := s.CurrentVersion(memento.Key{Table: "t", ID: "c"}); v != res.Seq {
		t.Errorf("created row version = %d, want %d", v, res.Seq)
	}
	if _, err := s.CurrentVersion(memento.Key{Table: "t", ID: "d"}); !errors.Is(err, ErrNotFound) {
		t.Error("removed row still present")
	}
}

func TestApplyCommitSetConflicts(t *testing.T) {
	ctx := context.Background()
	key := func(id string) memento.Key { return memento.Key{Table: "t", ID: id} }

	tests := []struct {
		name string
		cs   memento.CommitSet
	}{
		{"stale read", memento.CommitSet{
			Reads: []memento.ReadProof{{Key: key("a"), Version: 99}},
		}},
		{"absent read now present", memento.CommitSet{
			Reads: []memento.ReadProof{{Key: key("a")}},
		}},
		{"stale write", memento.CommitSet{
			Writes: []memento.Memento{mem("t", "a", 42, intFields(0))},
		}},
		{"create over existing", memento.CommitSet{
			Creates: []memento.Memento{mem("t", "a", 0, intFields(0))},
		}},
		{"remove of missing", memento.CommitSet{
			Removes: []memento.ReadProof{{Key: key("gone"), Version: 1}},
		}},
		{"remove with stale version", memento.CommitSet{
			Removes: []memento.ReadProof{{Key: key("a"), Version: 9}},
		}},
		{"remove never persisted", memento.CommitSet{
			Removes: []memento.ReadProof{{Key: key("a"), Version: 0}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New()
			defer s.Close()
			s.Seed(mem("t", "a", 0, intFields(1))) // version 1
			if _, err := s.ApplyCommitSet(ctx, tt.cs); !errors.Is(err, ErrConflict) {
				t.Fatalf("got %v, want ErrConflict", err)
			}
			// The store must be unchanged.
			if v, _ := s.CurrentVersion(key("a")); v != 1 {
				t.Errorf("row version changed to %d after rejected commit", v)
			}
			if s.RowCount("t") != 1 {
				t.Error("row count changed after rejected commit")
			}
		})
	}
}

func TestApplyCommitSetAtomicOnPartialConflict(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))

	// The write is valid, the remove conflicts; nothing must apply.
	cs := memento.CommitSet{
		Writes:  []memento.Memento{mem("t", "w", 1, intFields(2))},
		Removes: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "gone"}, Version: 1}},
	}
	if _, err := s.ApplyCommitSet(ctx, cs); !errors.Is(err, ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	if v, _ := s.CurrentVersion(memento.Key{Table: "t", ID: "w"}); v != 1 {
		t.Errorf("partial commit leaked: version = %d, want 1", v)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "x", 0, intFields(0)))

	// Two optimistic transactions that both read version 1 and write.
	w1 := memento.CommitSet{Writes: []memento.Memento{mem("t", "x", 1, intFields(1))}}
	w2 := memento.CommitSet{Writes: []memento.Memento{mem("t", "x", 1, intFields(2))}}
	if _, err := s.ApplyCommitSet(ctx, w1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyCommitSet(ctx, w2); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: got %v, want ErrConflict", err)
	}
}

// TestCommitNotices: every commit path announces its writes to every
// subscriber but the one under the committing origin. Edges A and B
// subscribe under their own origins; on each path A commits, then B,
// then a caller with no origin. A must hear B's commit and the
// origin-less one, B must hear A's and the origin-less one, in commit
// order, and neither hears its own. A read-only commit announces
// nothing.
func TestCommitNotices(t *testing.T) {
	const originA, originB = 1<<62 | 1, 1<<62 | 2
	origins := []uint64{originA, originB, 0}
	s := New()
	defer s.Close()
	ctx := context.Background()
	create := func(path string, i int) memento.CommitSet {
		return memento.CommitSet{
			Creates: []memento.Memento{mem("t", fmt.Sprintf("%s-%d", path, i), 0, intFields(int64(i)))},
			Origin:  origins[i],
		}
	}
	paths := []struct {
		name   string
		commit func(t *testing.T) []uint64 // one Seq per origin, in order
	}{
		{"ApplyCommitSet", func(t *testing.T) (ids []uint64) {
			for i := range origins {
				res, err := s.ApplyCommitSet(ctx, create("apply", i))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.Seq)
			}
			return ids
		}},
		// The sets of one storeapi.Conn.ApplyCommitSets, built before
		// any applies and then applied in order, as storeapi.ApplyEach
		// does.
		{"ApplyCommitSets", func(t *testing.T) (ids []uint64) {
			sets := make([]memento.CommitSet, len(origins))
			for i := range origins {
				sets[i] = create("group", i)
			}
			for _, cs := range sets {
				res, err := s.ApplyCommitSet(ctx, cs)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.Seq)
			}
			return ids
		}},
		{"Begin+Commit", func(t *testing.T) (ids []uint64) {
			for i := range origins {
				tx, err := s.Begin(OriginContext(ctx, origins[i]))
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert(ctx, create("tx", i).Creates[0]); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, tx.Seq())
			}
			return ids
		}},
		{"Prepare+CommitPrepared", func(t *testing.T) (ids []uint64) {
			for i := range origins {
				gid := fmt.Sprintf("g%d", i)
				if err := s.Prepare(ctx, gid, create("2pc", i)); err != nil {
					t.Fatal(err)
				}
				res, err := s.CommitPrepared(ctx, gid)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.Seq)
			}
			return ids
		}},
	}

	a, cancelA := s.Subscribe(8, originA)
	defer cancelA()
	b, cancelB := s.Subscribe(8, originB)
	defer cancelB()
	// Notices are in the channels when the commit returns.
	heard := func(ch <-chan Notice) (ids []uint64) {
		for len(ch) > 0 {
			ids = append(ids, (<-ch).Seq)
		}
		return ids
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ids := p.commit(t)
			if got, want := heard(a), []uint64{ids[1], ids[2]}; !slices.Equal(got, want) {
				t.Errorf("A heard %v, want B's and the origin-less commit %v", got, want)
			}
			if got, want := heard(b), []uint64{ids[0], ids[2]}; !slices.Equal(got, want) {
				t.Errorf("B heard %v, want A's and the origin-less commit %v", got, want)
			}
		})
	}

	// Read-only transactions produce no notices.
	tx := mustBegin(t, s)
	if _, err := tx.Get(ctx, "t", "apply-0"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := append(heard(a), heard(b)...); len(got) != 0 {
		t.Fatalf("read-only commit announced %v", got)
	}
	if st := s.Stats(); st.NoticesSent != 16 {
		t.Errorf("NoticesSent = %d, want 16 deliveries (4 paths x 2 subscribers x 2)", st.NoticesSent)
	}
}

func TestSubscribeCancelClosesChannel(t *testing.T) {
	s := New()
	defer s.Close()
	ch, cancel := s.Subscribe(1, 0)
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after cancel")
	}
}

// TestOverflowClosesSubscriber: a subscriber with no room for a notice
// loses its channel rather than the notice. A one-slot subscriber
// behind two commits reads the first notice, then the close.
func TestOverflowClosesSubscriber(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "a", 0, intFields(1)))
	ch, cancel := s.Subscribe(1, 0)
	defer cancel()
	for v := uint64(1); v <= 2; v++ {
		cs := memento.CommitSet{Writes: []memento.Memento{mem("t", "a", v, intFields(int64(v)))}}
		if _, err := s.ApplyCommitSet(ctx, cs); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
	}
	if _, ok := <-ch; !ok {
		t.Fatal("the notice that fit was not delivered")
	}
	select {
	case n, ok := <-ch:
		if ok {
			t.Fatalf("overflowed subscriber got %v, want its channel closed", n)
		}
	case <-time.After(time.Second):
		t.Fatal("overflowed subscriber's channel still open")
	}
}

func TestCloseClosesSubscribers(t *testing.T) {
	s := New()
	ch, _ := s.Subscribe(1, 0)
	s.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after store close")
	}
}

// TestConcurrentTransfersConserveBalance is the classic serializability
// invariant: concurrent optimistic transfers between accounts, with
// retries on conflict, must conserve the total balance.
func TestConcurrentTransfersConserveBalance(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	const (
		accounts  = 4
		transfers = 30
		workers   = 4
		initial   = 1000
	)
	for i := 0; i < accounts; i++ {
		s.Seed(mem("acct", fmt.Sprintf("%d", i), 0, intFields(initial)))
	}

	read := func(id string) (memento.Memento, error) {
		tx, err := s.Begin(ctx)
		if err != nil {
			return memento.Memento{}, err
		}
		defer tx.Abort()
		m, err := tx.Get(ctx, "acct", id)
		if err != nil {
			return memento.Memento{}, err
		}
		return m, tx.Commit()
	}

	transfer := func(rng *rand.Rand) error {
		for attempt := 0; attempt < 50; attempt++ {
			from := fmt.Sprintf("%d", rng.Intn(accounts))
			to := fmt.Sprintf("%d", rng.Intn(accounts))
			if from == to {
				continue
			}
			mFrom, err := read(from)
			if err != nil {
				return err
			}
			mTo, err := read(to)
			if err != nil {
				return err
			}
			amount := int64(1 + rng.Intn(10))
			cs := memento.CommitSet{Writes: []memento.Memento{
				mem("acct", from, mFrom.Version, intFields(mFrom.Fields["v"].Int-amount)),
				mem("acct", to, mTo.Version, intFields(mTo.Fields["v"].Int+amount)),
			}}
			_, err = s.ApplyCommitSet(ctx, cs)
			if err == nil {
				return nil
			}
			if !errors.Is(err, ErrConflict) {
				return err
			}
		}
		return errors.New("transfer starved")
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		seed := int64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				if err := transfer(rng); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var total int64
	for i := 0; i < accounts; i++ {
		m, err := read(fmt.Sprintf("%d", i))
		if err != nil {
			t.Fatal(err)
		}
		total += m.Fields["v"].Int
	}
	if total != accounts*initial {
		t.Fatalf("balance not conserved: total = %d, want %d", total, accounts*initial)
	}
}

// Property: applying a commit set built from a read of the current state
// always succeeds, and stamps the written row with the commit's number,
// the next after the seeds'.
func TestApplyCurrentStateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		defer s.Close()
		ctx := context.Background()
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			s.Seed(mem("t", fmt.Sprintf("%d", i), 0, intFields(rng.Int63n(100))))
		}
		id := fmt.Sprintf("%d", rng.Intn(n))
		key := memento.Key{Table: "t", ID: id}
		v, err := s.CurrentVersion(key)
		if err != nil {
			return false
		}
		res, err := s.ApplyCommitSet(ctx, memento.CommitSet{
			Writes: []memento.Memento{mem("t", id, v, intFields(rng.Int63n(100)))},
		})
		if err != nil {
			return false
		}
		nv, err := s.CurrentVersion(key)
		return err == nil && v <= uint64(n) && nv == res.Seq && res.Seq == uint64(n)+1 &&
			res.NewVersions[key] == res.Seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
