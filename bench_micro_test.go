package edgeejb_test

// Micro-benchmarks of the layers that bench/ladder.go has no rung for,
// plus BenchmarkBackendCommit, whose db_rts/op CI budgets. Every other
// layer cost (memento.clone, lockmgr.acquire_release, sqlstore.*,
// slicache.*, dbwire.*_rt) is a ladder rung: run
// `bash bench/run.sh --workload rbes-lan --seed 1 --seconds 10 --trace 1`.

import (
	"context"
	"sync"
	"testing"

	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
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

func BenchmarkQueryMatch(b *testing.B) {
	q := trade.HoldingsByAccount("uid-1")
	m := (&trade.Holding{HoldingID: "h-1", AccountID: "uid-1", Symbol: "s-1"}).ToMemento()
	for i := 0; i < b.N; i++ {
		if !q.Matches(m) {
			b.Fatal("no match")
		}
	}
}

// --- Datastore ---------------------------------------------------------

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

// --- Wire transport ----------------------------------------------------

// echoReq/echoHandler exercise the bare transport: framing,
// multiplexing and stats, with self-encoding bodies like the product's
// and a trivial handler so the numbers isolate transport cost.
type echoReq struct {
	Payload string
}

func (r *echoReq) WireLabel() string { return "echo" }

func (r *echoReq) AppendWire(dst []byte, _ *wire.Names) []byte {
	return wire.AppendString(dst, r.Payload)
}

func (r *echoReq) ReadWire(data []byte, _ *wire.Names) error {
	rd := wire.NewReader(data, nil)
	r.Payload = rd.Str()
	return rd.Err()
}

type echoResp struct {
	Payload string
}

func (r *echoResp) AppendWire(dst []byte, _ *wire.Names) []byte {
	return wire.AppendString(dst, r.Payload)
}

func (r *echoResp) ReadWire(data []byte, _ *wire.Names) error {
	rd := wire.NewReader(data, nil)
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

// BenchmarkWireMultiplexed measures concurrent calls sharing one
// connection — the transport's win over the seed's lock-the-socket
// design.
func BenchmarkWireMultiplexed(b *testing.B) {
	srv := startEchoServer(b)
	client := wire.NewClient(srv.Addr())
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

// BenchmarkBackendCommit measures the full split-servers commit path:
// edge -> back-end (one round trip) -> database (one exchange,
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
