package trade

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestColdMultiFindOverlapsOnSlowHop is the overlapped miss path seen
// from an ES/RBES edge whose back-end is 20 ms away: a cold Login (or
// Buy) misses on two beans and then validates, which is three round
// trips on the slow hop — counted — but only two round-trip waits,
// because the two fetches share one. Fetched one after the other it
// took three.
func TestColdMultiFindOverlapsOnSlowHop(t *testing.T) {
	const (
		oneWay = 20 * time.Millisecond
		rtt    = 2 * oneWay
	)
	user := UserID(1)
	actions := []struct {
		name string
		run  func(*rtEnv, context.Context) error
	}{
		{"login", func(e *rtEnv, ctx context.Context) error { _, err := e.svc.Login(ctx, user, "cold"); return err }},
		{"buy", func(e *rtEnv, ctx context.Context) error { _, err := e.svc.Buy(ctx, user, SymbolID(3), 1); return err }},
	}
	for _, a := range actions {
		e := newSlowRTEnv(t, "sli-split", oneWay)
		if err := e.mgr.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Dial the edge's shared connection before timing, as a running
		// edge has: one unrelated request, then forget it.
		if _, err := e.svc.GetQuote(context.Background(), SymbolID(0)); err != nil {
			t.Fatal(err)
		}
		e.mgr.CommonStore().Clear()

		start := time.Now()
		rts := e.measure(t, func(ctx context.Context) error { return a.run(e, ctx) })
		took := time.Since(start)
		t.Logf("cold %s: %d round trips in %v", a.name, rts, took)
		if rts != 3 {
			t.Errorf("cold %s = %d round trips on the slow hop, want 3 (two fetches and the commit)", a.name, rts)
		}
		if limit := rtt * 26 / 10; took >= limit {
			t.Errorf("cold %s took %v, want under %v: its two fetches should share one %v round trip", a.name, took, limit, rtt)
		}
		if took < 2*rtt {
			t.Errorf("cold %s took %v, under the two round-trip waits (%v) it cannot avoid", a.name, took, 2*rtt)
		}
	}
}

// BenchmarkColdLogin is a Login that misses on both its beans. CI holds
// its rts/op at exactly 3 — two fetches and the commit: fetching
// concurrently must never change what crosses the wire.
func BenchmarkColdLogin(b *testing.B) {
	benchmarkCold(b, func(ctx context.Context, svc *Service) error {
		_, err := svc.Login(ctx, UserID(1), "cold")
		return err
	})
}

// BenchmarkColdHome is a Home that misses on its one bean. CI holds its
// rts/op at exactly 1: the fetch is the transaction's one store access,
// so the read-only commit sends no validation.
func BenchmarkColdHome(b *testing.B) {
	benchmarkCold(b, func(ctx context.Context, svc *Service) error {
		_, err := svc.Home(ctx, UserID(1))
		return err
	})
}

// benchmarkCold runs action over a loopback ES/RBES back-end with the
// cache emptied before every iteration, and reports its round trips.
func benchmarkCold(b *testing.B, action func(context.Context, *Service) error) {
	e := newRTEnv(b, "sli-split")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	before := e.client.RoundTrips()
	for i := 0; i < b.N; i++ {
		e.mgr.CommonStore().Clear()
		if err := action(ctx, e.svc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.client.RoundTrips()-before)/float64(b.N), "rts/op")
}

// stmtLog records, in order, every statement a resource manager issues.
type stmtLog struct {
	storeapi.Conn
	mu  sync.Mutex
	ops []string
}

func (l *stmtLog) add(op string, arg any) {
	l.mu.Lock()
	l.ops = append(l.ops, fmt.Sprint(op, " ", arg))
	l.mu.Unlock()
}

func (l *stmtLog) Begin(ctx context.Context) (storeapi.Txn, error) {
	txn, err := l.Conn.Begin(ctx)
	if err != nil {
		return nil, err
	}
	l.add("begin", "")
	return &storeapi.StmtTxn{TxID: txn.ID(), Execer: stmtLogTxn{inner: txn, log: l}}, nil
}

// stmtLogTxn logs each statement, then runs it on the wrapped
// transaction.
type stmtLogTxn struct {
	inner storeapi.Txn
	log   *stmtLog
}

func (t stmtLogTxn) Exec(ctx context.Context, st storeapi.Stmt) storeapi.StmtResult {
	switch st.Kind {
	case storeapi.StmtGet:
		t.log.add("get", memento.Key{Table: st.Table, ID: st.ID})
	case storeapi.StmtPut:
		t.log.add("put", st.Mem.Key)
	case storeapi.StmtInsert:
		t.log.add("insert", st.Mem.Key.Table)
	case storeapi.StmtDelete:
		t.log.add("delete", st.Table)
	case storeapi.StmtQuery:
		t.log.add("query", st.Query.Table)
	case storeapi.StmtCommit:
		t.log.add("commit", "")
	default:
		t.log.add(fmt.Sprint("kind-", st.Kind), "")
	}
	return storeapi.ExecStmt(ctx, t.inner, st)
}

// take returns the statements logged so far and forgets them. The
// write-back run at commit walks a map, so each run of puts is sorted.
func (l *stmtLog) take() []string {
	l.mu.Lock()
	ops := l.ops
	l.ops = nil
	l.mu.Unlock()
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && strings.HasPrefix(ops[j], "put ") {
			j++
		}
		sort.Strings(ops[i:j])
		i = j + 1
	}
	return ops
}

// TestMultiFindStaysSerialInOneTransaction pins the statements JDBC and
// vanilla EJB issue for the actions that now find two beans in one call.
// Neither manager implements component.MultiLoader, so the finds are the
// statements they always were, in argument order in the transaction —
// the lists below were recorded before Find took more than one entity.
func TestMultiFindStaysSerialInOneTransaction(t *testing.T) {
	const (
		registry = "registry/uid-1"
		account  = "account/uid-1"
		quote    = "quote/s-3"
		bought   = "holding/h-uid-1-1" // Buy's new holding, the one Sell then sells
	)
	want := map[string][3][]string{ // login, buy, sell
		"jdbc": {
			{"begin ", "get " + registry, "get " + account, "put " + registry, "commit "},
			{"begin ", "get " + quote, "get " + account, "insert holding", "put " + account, "commit "},
			{"begin ", "query holding", "get " + quote, "get " + account, "delete holding", "put " + account, "commit "},
		},
		// Vanilla EJB: every find is an existence check plus an ejbLoad,
		// and every activated bean is stored back.
		"bmp": {
			{"begin ", "get " + registry, "get " + registry, "get " + account, "get " + account,
				"put " + account, "put " + registry, "commit "},
			{"begin ", "get " + quote, "get " + quote, "get " + account, "get " + account, "insert holding",
				"get " + bought, "get " + bought, "put " + account, "put " + bought, "put " + quote, "commit "},
			{"begin ", "query holding", "get " + bought, "get holding/h-uid-1-seed0", "get holding/h-uid-1-seed1",
				"get " + quote, "get " + quote, "get " + account, "get " + account, "delete holding",
				"put " + account, "put holding/h-uid-1-seed0", "put holding/h-uid-1-seed1", "put " + quote, "commit "},
		},
	}
	for algo, actions := range want {
		store := sqlstore.New()
		t.Cleanup(store.Close)
		Populate(store, PopulateConfig{Users: 4, Symbols: 8, HoldingsPerUser: 2, OpenBalance: 100_000})
		log := &stmtLog{Conn: storeapi.Local(store)}
		var rm component.ResourceManager = component.NewJDBCManager(log)
		if algo == "bmp" {
			rm = component.NewBMPManager(log)
		}
		reg, err := NewEntityRegistry()
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(component.NewContainer(reg, rm))
		ctx := context.Background()
		check := func(action string, want []string, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if got := log.take(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s issued\n%q, want\n%q", algo, action, got, want)
			}
		}
		_, err = svc.Login(ctx, UserID(1), "s")
		check("login", actions[0], err)
		_, err = svc.Buy(ctx, UserID(1), SymbolID(3), 1)
		check("buy", actions[1], err)
		_, err = svc.Sell(ctx, UserID(1))
		check("sell", actions[2], err)
	}
}
