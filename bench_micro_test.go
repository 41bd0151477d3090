package edgeejb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/lockmgr"
	"edgeejb/internal/memento"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// --- Value layer -------------------------------------------------------

func sampleMemento() memento.Memento {
	return (&trade.Account{
		UserID:      "uid-1",
		Balance:     12345.67,
		OpenBalance: 10000,
		LoginCount:  7,
		LastLogin:   "2004-11-15T10:00:00Z",
	}).ToMemento()
}

func BenchmarkMementoClone(b *testing.B) {
	m := sampleMemento()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Clone()
	}
}

func BenchmarkQueryMatch(b *testing.B) {
	q := trade.HoldingsByAccount("uid-1")
	m := (&trade.Holding{HoldingID: "h-1", AccountID: "uid-1", Symbol: "s-1"}).ToMemento()
	for i := 0; i < b.N; i++ {
		if !q.Matches(m) {
			b.Fatal("no match")
		}
	}
}

// --- Lock manager ------------------------------------------------------

func BenchmarkLockAcquireRelease(b *testing.B) {
	m := lockmgr.New()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner := lockmgr.Owner(i + 1)
		if err := m.Acquire(ctx, owner, "res", lockmgr.Exclusive); err != nil {
			b.Fatal(err)
		}
		m.Release(owner, "res")
	}
}

// --- Datastore ---------------------------------------------------------

func BenchmarkStoreGetCommit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(sampleMemento())
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, err := store.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Get(ctx, trade.TableAccount, "uid-1"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePutCommit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	m := sampleMemento()
	store.Seed(m)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, err := store.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Put(ctx, m); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreApplyCommitSet(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	m := sampleMemento()
	store.Seed(m)
	ctx := context.Background()
	key := m.Key
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := store.CurrentVersion(key)
		if err != nil {
			b.Fatal(err)
		}
		w := m.Clone()
		w.Version = v
		if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{
			Writes: []memento.Memento{w},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreQuery100(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	for i := 0; i < 100; i++ {
		h := &trade.Holding{
			HoldingID: fmt.Sprintf("h-%03d", i),
			AccountID: fmt.Sprintf("uid-%d", i%10),
		}
		store.Seed(h.ToMemento())
	}
	ctx := context.Background()
	q := trade.HoldingsByAccount("uid-3")
	conn := storeapi.Local(store)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := conn.AutoQuery(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Mems) != 10 {
			b.Fatalf("rows = %d", len(res.Mems))
		}
	}
}

// --- SLI cache ---------------------------------------------------------

func BenchmarkSLICachedReadCommit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(sampleMemento())
	mgr := slicache.NewManager(storeapi.Local(store), slicache.WithShipping(slicache.WholeSet))
	defer mgr.Close()
	ctx := context.Background()
	key := memento.Key{Table: trade.TableAccount, ID: "uid-1"}

	// Warm the common store.
	dt, _ := mgr.Begin(ctx)
	if _, err := dt.Load(ctx, key); err != nil {
		b.Fatal(err)
	}
	_ = dt.Commit(ctx)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dt.Load(ctx, key); err != nil {
			b.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLIWriteCommit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(sampleMemento())
	mgr := slicache.NewManager(storeapi.Local(store), slicache.WithShipping(slicache.WholeSet))
	defer mgr.Close()
	ctx := context.Background()
	key := memento.Key{Table: trade.TableAccount, ID: "uid-1"}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		m, err := dt.Load(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		m.Fields["balance"] = memento.Float(float64(i))
		if err := dt.Store(ctx, m); err != nil {
			b.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Wire transport ----------------------------------------------------

// echoReq/echoHandler exercise the bare transport: framing,
// multiplexing and stats, with self-encoding bodies like the product's
// and a trivial handler so the numbers isolate transport cost.
type echoReq struct {
	Payload string
}

func (r *echoReq) WireLabel() string { return "echo" }

func (r *echoReq) AppendWire(dst []byte) []byte { return wire.AppendString(dst, r.Payload) }

func (r *echoReq) ReadWire(data []byte) error {
	rd := wire.NewReader(data)
	r.Payload = rd.Str()
	return rd.Err()
}

type echoResp struct {
	Payload string
}

func (r *echoResp) AppendWire(dst []byte) []byte { return wire.AppendString(dst, r.Payload) }

func (r *echoResp) ReadWire(data []byte) error {
	rd := wire.NewReader(data)
	r.Payload = rd.Str()
	return rd.Err()
}

type echoHandler struct{}

func (echoHandler) NewRequest() any { return new(echoReq) }

func (echoHandler) Handle(ctx context.Context, sess *wire.Session, id uint64, req any) any {
	return &echoResp{Payload: req.(*echoReq).Payload}
}

func (echoHandler) Close() {}

func startEchoServer(b *testing.B) *wire.Server {
	b.Helper()
	srv := wire.NewServer(func() wire.ConnHandler { return echoHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkWireRoundTrip is the floor for every remote call in the
// system: one request/response frame pair over loopback on a warm
// connection.
func BenchmarkWireRoundTrip(b *testing.B) {
	srv := startEchoServer(b)
	client := wire.NewClient(srv.Addr())
	defer client.Close()
	ctx := context.Background()
	if err := client.Call(ctx, &echoReq{Payload: "warm"}, new(echoResp)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := new(echoResp)
		if err := client.Call(ctx, &echoReq{Payload: "x"}, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMultiplexed measures concurrent calls sharing one
// connection — the transport's win over the seed's lock-the-socket
// design.
func BenchmarkWireMultiplexed(b *testing.B) {
	srv := startEchoServer(b)
	client := wire.NewClient(srv.Addr(), wire.WithMaxConns(1))
	defer client.Close()
	ctx := context.Background()
	if err := client.Call(ctx, &echoReq{Payload: "warm"}, new(echoResp)); err != nil {
		b.Fatal(err)
	}
	const workers = 16
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	each := b.N / workers
	if each == 0 {
		each = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp := new(echoResp)
				if err := client.Call(ctx, &echoReq{Payload: "x"}, resp); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- Wire protocol -----------------------------------------------------

func BenchmarkWireAutoGet(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(sampleMemento())
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := dbwire.Dial(srv.Addr())
	defer client.Close()
	ctx := context.Background()
	if err := client.Ping(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.AutoGet(ctx, trade.TableAccount, "uid-1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireApplyCommitSet(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	m := sampleMemento()
	store.Seed(m)
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := dbwire.Dial(srv.Addr())
	defer client.Close()
	ctx := context.Background()
	version := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := m.Clone()
		w.Version = version
		res, err := client.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{w}})
		if err != nil {
			b.Fatal(err)
		}
		version = res.NewVersions[m.Key]
	}
}

// BenchmarkBackendCommit measures the full split-servers commit path:
// edge -> back-end (one round trip) -> database (one grouped exchange,
// reported as db_rts/op and held at exactly 1 by CI).
func BenchmarkBackendCommit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	m := sampleMemento()
	store.Seed(m)
	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer dbSrv.Close()
	dbClient := dbwire.Dial(dbSrv.Addr())
	defer dbClient.Close()
	be := backend.NewServer(dbClient)
	if err := be.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	edge := dbwire.Dial(be.Addr())
	defer edge.Close()
	ctx := context.Background()
	version := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	before := dbClient.WireStats().RoundTrips
	for i := 0; i < b.N; i++ {
		w := m.Clone()
		w.Version = version
		res, err := edge.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{w}})
		if err != nil {
			b.Fatal(err)
		}
		version = res.NewVersions[m.Key]
	}
	b.ReportMetric(float64(dbClient.WireStats().RoundTrips-before)/float64(b.N), "db_rts/op")
}

func BenchmarkQueryIndexedVsScan(b *testing.B) {
	const rows = 2000
	seedStore := func(withIndex bool) *sqlstore.Store {
		store := sqlstore.New()
		if withIndex {
			if err := store.CreateIndex(trade.TableHolding, "accountID"); err != nil {
				b.Fatal(err)
			}
			if err := store.CreateIndex(trade.TableHolding, "quantity"); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < rows; i++ {
			h := &trade.Holding{
				HoldingID: fmt.Sprintf("h-%04d", i),
				AccountID: fmt.Sprintf("uid-%d", i%100),
				Quantity:  float64(i % 50),
			}
			store.Seed(h.ToMemento())
		}
		return store
	}
	ctx := context.Background()
	eqQuery := trade.HoldingsByAccount("uid-42")
	rangeQuery := memento.Query{
		Table: trade.TableHolding,
		Where: []memento.Predicate{{Field: "quantity", Op: memento.OpGe, Value: memento.Float(45)}},
	}

	run := func(b *testing.B, store *sqlstore.Store, q memento.Query, wantRows int) {
		conn := storeapi.Local(store)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := conn.AutoQuery(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Mems) != wantRows {
				b.Fatalf("rows = %d, want %d", len(got.Mems), wantRows)
			}
		}
	}
	b.Run("equality-scan", func(b *testing.B) { run(b, seedStore(false), eqQuery, rows/100) })
	b.Run("equality-indexed", func(b *testing.B) { run(b, seedStore(true), eqQuery, rows/100) })
	b.Run("range-scan", func(b *testing.B) { run(b, seedStore(false), rangeQuery, rows/10) })
	b.Run("range-indexed", func(b *testing.B) { run(b, seedStore(true), rangeQuery, rows/10) })
}
