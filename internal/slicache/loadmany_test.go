package slicache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// loadManyScenario is one randomly drawn starting state plus the key
// list to load from it. It is replayed on two fresh environments, so
// everything in it is data.
type loadManyScenario struct {
	warmOld   []string      // common-store entries stored 30 s ago
	warmNew   []string      // common-store entries stored 5 s ago
	preClean  []string      // loaded earlier in the transaction
	preDirty  []string      // loaded and updated
	preRemove []string      // loaded and removed
	create    bool          // "new" created in the transaction
	keys      []memento.Key // what LoadMany / the serial Loads are asked for
}

func drawLoadManyScenario(rng *rand.Rand) loadManyScenario {
	ids := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	pick := func(n int) []string {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return append([]string(nil), ids[:rng.Intn(n+1)]...)
	}
	sc := loadManyScenario{
		warmOld: pick(3),
		warmNew: pick(3),
		create:  rng.Intn(2) == 0,
	}
	pre := pick(4)
	for _, id := range pre {
		switch rng.Intn(3) {
		case 0:
			sc.preClean = append(sc.preClean, id)
		case 1:
			sc.preDirty = append(sc.preDirty, id)
		default:
			sc.preRemove = append(sc.preRemove, id)
		}
	}
	// A bean that does not exist appears at most once: asked for twice,
	// serial Loads go to the store twice for it and LoadMany goes once.
	pool := ids
	if sc.create {
		pool = append([]string{"new"}, ids...)
	}
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		sc.keys = append(sc.keys, key(pool[rng.Intn(len(pool))]))
	}
	if n >= 3 && rng.Intn(2) == 0 {
		// One key that does not exist, in the middle, once.
		sc.keys[1+rng.Intn(n-2)] = key("absent")
	}
	return sc
}

// loadManyOutcome is everything the two ways of loading must agree on.
type loadManyOutcome struct {
	Mems      []memento.Memento
	Err       string
	Entries   map[memento.Key]entry
	CommitSet memento.CommitSet
	Loads     uint64
	Fetches   uint64
	Hits      uint64
	Misses    uint64
	AutoGets  uint64 // store accesses made by the load under test
	// Accesses and CacheServed are what the transaction's read-only
	// commit decides on.
	Accesses    int
	CacheServed bool
}

// play builds the scenario's starting state on a fresh environment and
// loads its keys through load.
func (sc loadManyScenario) play(t *testing.T, load func(*sliTx, []memento.Key) ([]memento.Memento, error)) loadManyOutcome {
	t.Helper()
	ctx := context.Background()
	e := newEnv(t)
	for i := 0; i < 8; i++ {
		e.store.Seed(row(fmt.Sprint(i), int64(i)))
	}
	now := time.Unix(1_000_000, 0)
	e.mgr.SetClock(func() time.Time { return now })
	warm := func(ids []string) {
		dt := e.begin(t)
		for _, id := range ids {
			if _, err := dt.Load(ctx, key(id)); err != nil {
				t.Fatal(err)
			}
		}
		_ = dt.Abort(ctx)
	}
	warm(sc.warmOld)
	now = now.Add(25 * time.Second)
	warm(sc.warmNew)
	now = now.Add(5 * time.Second)

	tx := e.begin(t).(*sliTx)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range sc.preClean {
		_, err := tx.Load(ctx, key(id))
		must(err)
	}
	for _, id := range sc.preDirty {
		m, err := tx.Load(ctx, key(id))
		must(err)
		m.Fields["n"] = memento.Int(100)
		must(tx.Store(ctx, m))
	}
	for _, id := range sc.preRemove {
		must(tx.Remove(ctx, key(id)))
	}
	if sc.create {
		must(tx.Create(ctx, row("new", 42)))
	}

	gets := e.conn.Ops() // nothing but miss fetches reaches the store here
	mems, err := load(tx, sc.keys)
	out := loadManyOutcome{Mems: mems, Entries: make(map[memento.Key]entry)}
	if err != nil {
		out.Err = err.Error()
	}
	for k, en := range tx.entries {
		out.Entries[k] = *en
	}
	out.CommitSet = tx.buildCommitSet()
	out.CommitSet.Origin = 0 // each manager mints its own
	st := e.mgr.Stats()
	out.Loads, out.Fetches = st.Loads, st.MissFetches
	out.Hits, out.Misses = st.Cache.Hits, st.Cache.Misses
	out.AutoGets = e.conn.Ops() - gets
	out.Accesses, out.CacheServed = tx.accesses, tx.cacheServed
	return out
}

// TestLoadManyMatchesSerialLoads is the equivalence property behind the
// overlapped miss path: LoadMany(keys) and Load(key) for each key in
// turn (going on past a key that fails, keeping the first error) leave
// the same transaction, the same commit set, the same results and the
// same counters — each key consults the common store exactly once and
// each missing bean is fetched exactly once.
func TestLoadManyMatchesSerialLoads(t *testing.T) {
	many := func(tx *sliTx, keys []memento.Key) ([]memento.Memento, error) {
		return tx.LoadMany(context.Background(), keys)
	}
	serial := func(tx *sliTx, keys []memento.Key) ([]memento.Memento, error) {
		out := make([]memento.Memento, len(keys))
		var first error
		for i, k := range keys {
			m, err := tx.Load(context.Background(), k)
			if err != nil && first == nil {
				first = err
			}
			out[i] = m
		}
		if first != nil {
			return nil, first
		}
		return out, nil
	}
	rng := rand.New(rand.NewSource(20))
	overlapped := 0
	for i := 0; i < 300; i++ {
		sc := drawLoadManyScenario(rng)
		got, want := sc.play(t, many), sc.play(t, serial)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d %+v:\nLoadMany %+v\nserial   %+v", i, sc, got, want)
		}
		if got.AutoGets > 1 {
			overlapped++
		}
	}
	if overlapped < 30 {
		t.Errorf("only %d of 300 scenarios fetched more than one bean at once; the draw no longer exercises the overlap", overlapped)
	}
}

// gatedConn announces every AutoGet that enters it and counts the ones
// still inside.
type gatedConn struct {
	storeapi.Conn
	entered  chan struct{}
	inFlight atomic.Int32
}

func (c *gatedConn) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	c.entered <- struct{}{}
	return c.Conn.AutoGet(ctx, table, id)
}

// TestLoadManyCancellation cancels a three-bean LoadMany while all three
// fetches are waiting on a slow hop: it must return the context's error
// at once, with no fetch still running behind it, no goroutine left over
// and the client's connections kept.
func TestLoadManyCancellation(t *testing.T) {
	const oneWay = 100 * time.Millisecond
	store := sqlstore.New()
	t.Cleanup(store.Close)
	for i := 0; i < 3; i++ {
		store.Seed(row(fmt.Sprint(i), int64(i)))
	}
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	proxy := latency.NewProxy(srv.Addr(), oneWay)
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	client := dbwire.Dial(proxy.Addr())
	t.Cleanup(func() { _ = client.Close() })
	// entered is sized to the three sends of one LoadMany.
	conn := &gatedConn{Conn: client, entered: make(chan struct{}, 3)}
	mgr := NewManager(conn)
	keys := []memento.Key{key("0"), key("1"), key("2")}
	begin := func() *sliTx {
		dt, err := mgr.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return dt.(*sliTx)
	}

	// A first, uncancelled pass dials the client's shared connection and
	// starts every long-lived goroutine, so the counts below are settled.
	if _, err := begin().LoadMany(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i++ {
		<-conn.entered
	}
	mgr.CommonStore().Clear()
	if err := settled(client, store, 1); err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tx := begin()
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := tx.LoadMany(ctx, keys)
		if n := conn.inFlight.Load(); n != 0 {
			t.Errorf("LoadMany returned with %d fetches still running", n)
		}
		errc <- err
	}()
	for i := 0; i < len(keys); i++ {
		<-conn.entered // every fetch is now on the slow hop
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadMany = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took >= 2*oneWay {
		t.Errorf("cancelled LoadMany took %v, a whole round trip (%v)", took, 2*oneWay)
	}
	if len(tx.entries) != 0 {
		t.Errorf("cancelled LoadMany left %d entries in the transaction", len(tx.entries))
	}
	if err := settled(client, store, 1); err != nil {
		t.Errorf("after cancellation: %v", err)
	}
	// The abandoned replies are still crossing the proxy; give its
	// per-chunk work the round trip to finish before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after cancellation, %d before", got, goroutines)
	}

	// The connections still work: the same beans load once asked again.
	if _, err := begin().LoadMany(context.Background(), keys); err != nil {
		t.Fatalf("LoadMany after a cancelled one: %v", err)
	}
}
