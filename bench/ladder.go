package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/lockmgr"
	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// The layer ladder drives one layer's public entry point at a time, in
// isolation, on loopback: what each rung costs when nothing else runs.
// Every rung reports <name>_ns (median round) and <name>_allocs per op.

const ladderRounds = 9

// rung builds one isolated layer. op performs per reported operations.
type rung struct {
	name  string
	per   int
	build func(env *ladderEnv) (op func() error, err error)
}

// ladderEnv owns what a rung builds, so one cleanup tears it all down.
type ladderEnv struct {
	ctx     context.Context
	closers []func()
}

func (e *ladderEnv) onClose(f func()) { e.closers = append(e.closers, f) }

func (e *ladderEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// store returns a fresh store seeded with mems.
func (e *ladderEnv) store(mems ...memento.Memento) *sqlstore.Store {
	s := sqlstore.New()
	e.onClose(s.Close)
	s.Seed(mems...)
	return s
}

// serve starts a dbwire server over conn and dials it.
func (e *ladderEnv) serve(conn storeapi.Conn) (*dbwire.Client, error) {
	srv := dbwire.NewServer(conn)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.onClose(srv.Close)
	c := dbwire.Dial(srv.Addr())
	e.onClose(func() { _ = c.Close() })
	return c, c.Ping(e.ctx)
}

// proxied starts a delay proxy in front of target.
func (e *ladderEnv) proxied(target string, delay time.Duration) (string, error) {
	p := latency.NewProxy(target, delay)
	if err := p.Start("127.0.0.1:0"); err != nil {
		return "", err
	}
	e.onClose(p.Close)
	return p.Addr(), nil
}

// container builds a trade container over a populated local store.
func (e *ladderEnv) container(manager func(storeapi.Conn) component.ResourceManager) (*component.Container, error) {
	store := sqlstore.New()
	e.onClose(store.Close)
	trade.Populate(store, trade.PopulateConfig{Seed: 1, Users: 20, Symbols: 40, HoldingsPerUser: holdingsPerUser})
	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return nil, err
	}
	return component.NewContainer(registry, manager(storeapi.Local(store))), nil
}

func ladderAccount(user string) memento.Memento {
	return (&trade.Account{
		UserID: user, Balance: 12345.67, OpenBalance: 10000, LoginCount: 7, LastLogin: "2004-11-15T10:00:00Z",
	}).ToMemento()
}

var accountKey = memento.Key{Table: trade.TableAccount, ID: "uid-1"}

// applyLoop returns an op that re-commits one account through conn,
// carrying the row version forward the way an edge cache does.
func applyLoop(ctx context.Context, conn storeapi.Conn, mems ...memento.Memento) func() error {
	versions := make([]uint64, len(mems))
	for i := range versions {
		versions[i] = 1
	}
	return func() error {
		var cs memento.CommitSet
		for i, m := range mems {
			w := m.Clone()
			w.Version = versions[i]
			cs.Writes = append(cs.Writes, w)
		}
		res, err := conn.ApplyCommitSet(ctx, cs)
		if err != nil {
			return err
		}
		for i, m := range mems {
			versions[i] = res.NewVersions[m.Key]
		}
		return nil
	}
}

// updateTx is one read-modify-write container transaction.
func updateTx(ctx context.Context, c *component.Container) func() error {
	n := 0.0
	return func() error {
		return c.Execute(ctx, func(tx *component.Tx) error {
			acct := &trade.Account{UserID: "uid-1"}
			if err := tx.Find(acct); err != nil {
				return err
			}
			n++
			acct.Balance = n
			return tx.Update(acct)
		})
	}
}

// echoReq and echoHandler exercise the bare transport.
type echoReq struct{ Payload string }

func (*echoReq) WireLabel() string { return "echo" }

type echoResp struct{ Payload string }

type echoHandler struct{}

func (echoHandler) NewRequest() any { return new(echoReq) }

func (echoHandler) Handle(_ context.Context, _ *wire.Session, _ uint64, req any) any {
	return &echoResp{Payload: req.(*echoReq).Payload}
}

func (echoHandler) Close() {}

// echo returns an op making one echo round trip, optionally through a
// delay proxy.
func echo(env *ladderEnv, viaProxy bool, delay time.Duration) (func() error, error) {
	srv := wire.NewServer(func() wire.ConnHandler { return echoHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	env.onClose(srv.Close)
	addr := srv.Addr()
	if viaProxy {
		var err error
		if addr, err = env.proxied(addr, delay); err != nil {
			return nil, err
		}
	}
	c := wire.NewClient(addr)
	env.onClose(func() { _ = c.Close() })
	return func() error { return c.Call(env.ctx, &echoReq{Payload: "x"}, new(echoResp)) }, nil
}

// slicacheTx returns an op running body in one cache transaction over a
// local store (whole-set shipping, as the root micro-benchmarks do).
func slicacheTx(env *ladderEnv, store *sqlstore.Store, body func(dt component.DataTx) error) func() error {
	mgr := slicache.NewManager(storeapi.Local(store), slicache.WithShipping(slicache.WholeSet))
	env.onClose(mgr.Close)
	return func() error {
		dt, err := mgr.Begin(env.ctx)
		if err != nil {
			return err
		}
		if err := body(dt); err != nil {
			_ = dt.Abort(env.ctx)
			return err
		}
		return dt.Commit(env.ctx)
	}
}

// shardRouter builds a two-shard router over local stores and returns
// it with one account memento owned by each shard.
func shardRouter(env *ladderEnv) (*shard.Router, [2]memento.Memento, error) {
	ring := shard.NewRing(2, shard.WithPlacement(trade.ShardPlacement))
	var owned [2]memento.Memento
	var found [2]bool
	for i := 0; !(found[0] && found[1]); i++ {
		m := ladderAccount(trade.UserID(i))
		s := ring.Of(m.Key)
		owned[s], found[s] = m, true
	}
	conns := []storeapi.Conn{storeapi.Local(env.store(owned[0])), storeapi.Local(env.store(owned[1]))}
	router, err := shard.NewRouter(ring, conns, shard.WithQueryAffinity(trade.QueryShardPlacement))
	return router, owned, err
}

var rungs = []rung{
	{name: "memento.clone", per: 1, build: func(env *ladderEnv) (func() error, error) {
		m := ladderAccount("uid-1")
		return func() error { sink = m.Clone(); return nil }, nil
	}},
	{name: "lockmgr.acquire_release", per: 1, build: func(env *ladderEnv) (func() error, error) {
		lm := lockmgr.New()
		env.onClose(lm.Close)
		owner := lockmgr.Owner(0)
		return func() error {
			owner++
			if err := lm.Acquire(env.ctx, owner, "res", lockmgr.Exclusive); err != nil {
				return err
			}
			lm.Release(owner, "res")
			return nil
		}, nil
	}},
	{name: "sqlstore.get_commit", per: 1, build: func(env *ladderEnv) (func() error, error) {
		store := env.store(ladderAccount("uid-1"))
		return func() error {
			tx, err := store.Begin(env.ctx)
			if err != nil {
				return err
			}
			if _, err := tx.Get(env.ctx, accountKey.Table, accountKey.ID); err != nil {
				tx.Abort()
				return err
			}
			return tx.Commit()
		}, nil
	}},
	{name: "sqlstore.apply_commit_set", per: 1, build: func(env *ladderEnv) (func() error, error) {
		m := ladderAccount("uid-1")
		return applyLoop(env.ctx, storeapi.Local(env.store(m)), m), nil
	}},
	{name: "sqlstore.query_indexed", per: 1, build: func(env *ladderEnv) (func() error, error) {
		store := env.store()
		if err := store.CreateIndex(trade.TableHolding, "accountID"); err != nil {
			return nil, err
		}
		for i := 0; i < 2000; i++ {
			store.Seed((&trade.Holding{
				HoldingID: fmt.Sprintf("h-%04d", i), AccountID: trade.UserID(i % 100), Symbol: trade.SymbolID(i % 40),
			}).ToMemento())
		}
		conn, q := storeapi.Local(store), trade.HoldingsByAccount("uid-42")
		return func() error {
			res, err := conn.AutoQuery(env.ctx, q)
			if err == nil && len(res.Mems) != 20 {
				err = fmt.Errorf("finder returned %d rows, want 20", len(res.Mems))
			}
			return err
		}, nil
	}},
	{name: "wire.echo_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		return echo(env, false, 0)
	}},
	{name: "dbwire.autoget_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		c, err := env.serve(storeapi.Local(env.store(ladderAccount("uid-1"))))
		return func() error {
			_, err := c.AutoGet(env.ctx, accountKey.Table, accountKey.ID)
			return err
		}, err
	}},
	{name: "dbwire.apply_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		m := ladderAccount("uid-1")
		c, err := env.serve(storeapi.Local(env.store(m)))
		return applyLoop(env.ctx, c, m), err
	}},
	{name: "dbwire.txn4_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		m := ladderAccount("uid-1")
		c, err := env.serve(storeapi.Local(env.store(m)))
		return func() error {
			txn, err := c.Begin(env.ctx)
			if err != nil {
				return err
			}
			got, err := txn.GetForUpdate(env.ctx, m.Key.Table, m.Key.ID)
			if err == nil {
				err = txn.Put(env.ctx, got.Mem)
			}
			if err != nil {
				_ = txn.Abort(env.ctx)
				return err
			}
			return txn.Commit(env.ctx)
		}, err
	}},
	{name: "backend.apply_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		m := ladderAccount("uid-1")
		db, err := env.serve(storeapi.Local(env.store(m)))
		if err != nil {
			return nil, err
		}
		be := backend.NewServer(db)
		if err := be.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		env.onClose(be.Close)
		edge := dbwire.Dial(be.Addr())
		env.onClose(func() { _ = edge.Close() })
		return applyLoop(env.ctx, edge, m), edge.Ping(env.ctx)
	}},
	{name: "shard.route_apply", per: 1, build: func(env *ladderEnv) (func() error, error) {
		router, owned, err := shardRouter(env)
		return applyLoop(env.ctx, router, owned[0]), err
	}},
	{name: "shard.twopc_apply", per: 1, build: func(env *ladderEnv) (func() error, error) {
		router, owned, err := shardRouter(env)
		return applyLoop(env.ctx, router, owned[0], owned[1]), err
	}},
	{name: "component.jdbc_tx", per: 1, build: func(env *ladderEnv) (func() error, error) {
		c, err := env.container(func(conn storeapi.Conn) component.ResourceManager { return component.NewJDBCManager(conn) })
		return updateTx(env.ctx, c), err
	}},
	{name: "component.bmp_tx", per: 1, build: func(env *ladderEnv) (func() error, error) {
		c, err := env.container(func(conn storeapi.Conn) component.ResourceManager { return component.NewBMPManager(conn) })
		return updateTx(env.ctx, c), err
	}},
	{name: "slicache.read_commit", per: 1, build: func(env *ladderEnv) (func() error, error) {
		return slicacheTx(env, env.store(ladderAccount("uid-1")), func(dt component.DataTx) error {
			_, err := dt.Load(env.ctx, accountKey)
			return err
		}), nil
	}},
	{name: "slicache.write_commit", per: 1, build: func(env *ladderEnv) (func() error, error) {
		n := 0.0
		return slicacheTx(env, env.store(ladderAccount("uid-1")), func(dt component.DataTx) error {
			m, err := dt.Load(env.ctx, accountKey)
			if err != nil {
				return err
			}
			n++
			m.Fields["balance"] = memento.Float(n)
			return dt.Store(env.ctx, m)
		}), nil
	}},
	{name: "slicache.query_commit", per: 1, build: func(env *ladderEnv) (func() error, error) {
		store := env.store()
		trade.Populate(store, trade.PopulateConfig{Seed: 1, Users: 20, Symbols: 40, HoldingsPerUser: holdingsPerUser})
		q := trade.HoldingsByAccount("uid-1")
		return slicacheTx(env, store, func(dt component.DataTx) error {
			_, err := dt.Query(env.ctx, q)
			return err
		}), nil
	}},
	{name: "trade.step", per: 11, build: func(env *ladderEnv) (func() error, error) {
		c, err := env.container(func(conn storeapi.Conn) component.ResourceManager { return component.NewJDBCManager(conn) })
		if err != nil {
			return nil, err
		}
		svc, ctx, user := trade.NewService(c), env.ctx, "uid-1"
		// A fixed 11-step session; the buy and the sell cancel, so the
		// portfolio does not grow from one session to the next.
		return func() error {
			_, err := svc.Login(ctx, user, "s")
			try := func(f func() error) {
				if err == nil {
					err = f()
				}
			}
			try(func() error { _, e := svc.Home(ctx, user); return e })
			try(func() error { _, e := svc.GetQuote(ctx, "s-1"); return e })
			try(func() error { _, e := svc.Portfolio(ctx, user); return e })
			try(func() error { _, e := svc.Buy(ctx, user, "s-2", 3); return e })
			try(func() error { _, e := svc.Account(ctx, user); return e })
			try(func() error { return svc.AccountUpdate(ctx, user, "1 Main St", "uid-1@example.test") })
			try(func() error { _, e := svc.GetQuote(ctx, "s-3"); return e })
			try(func() error { _, e := svc.Sell(ctx, user); return e })
			try(func() error { _, e := svc.Home(ctx, user); return e })
			try(func() error { return svc.Logout(ctx, user) })
			return err
		}, nil
	}},
	{name: "appserver.request_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		c, err := env.container(func(conn storeapi.Conn) component.ResourceManager { return component.NewJDBCManager(conn) })
		if err != nil {
			return nil, err
		}
		srv := appserver.NewServer(trade.NewService(c))
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		env.onClose(srv.Close)
		client := appserver.NewClient(srv.Addr())
		env.onClose(func() { _ = client.Close() })
		req, err := appserver.StepRequest(trade.Step{Action: trade.ActionHome, UserID: "uid-1"})
		return func() error {
			resp, err := client.Do(env.ctx, req)
			if err == nil && !resp.OK {
				err = resp.Error()
			}
			return err
		}, err
	}},
}

// sink keeps the compiler from removing a measured call.
var sink any

// rungResult is one rung's cost per operation.
type rungResult struct {
	ns, allocs float64
}

// measureRung builds a rung, calibrates an iteration count that fills a
// ninth of budget, and times ladderRounds rounds of it.
func measureRung(ctx context.Context, r rung, budget time.Duration) (res rungResult, err error) {
	env := &ladderEnv{ctx: ctx}
	defer env.close()
	op, err := r.build(env)
	if err != nil {
		return res, fmt.Errorf("ladder %s: %w", r.name, err)
	}
	roundBudget := budget / (ladderRounds + 1)
	iters := 0
	for start := time.Now(); iters < 3 || time.Since(start) < roundBudget; iters++ {
		if err := op(); err != nil {
			return res, fmt.Errorf("ladder %s: %w", r.name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perOp := make([]float64, ladderRounds)
	for round := range perOp {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return res, fmt.Errorf("ladder %s: %w", r.name, err)
			}
		}
		perOp[round] = float64(time.Since(start).Nanoseconds()) / float64(iters*r.per)
	}
	runtime.ReadMemStats(&after)
	return rungResult{
		ns:     median(perOp),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(ladderRounds*iters*r.per),
	}, nil
}

// runLadder measures every rung within budget and derives the rows that
// are differences of rungs: what the delay proxy adds to a round trip at
// 0 ms, and by how much it overshoots a 2 ms delay.
func runLadder(ctx context.Context, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	per := budget / time.Duration(len(rungs)+2)
	results := make(map[string]rungResult)
	for _, r := range rungs {
		res, err := measureRung(ctx, r, per)
		if err != nil {
			return nil, err
		}
		results[r.name] = res
		out[r.name+"_ns"], out[r.name+"_allocs"] = res.ns, res.allocs
	}
	direct := results["wire.echo_rt"]
	via0, err := measureRung(ctx, rung{name: "latency.forward_rt", per: 1, build: func(env *ladderEnv) (func() error, error) {
		return echo(env, true, 0)
	}}, per)
	if err != nil {
		return nil, err
	}
	out["latency.forward_rt_ns"] = via0.ns - direct.ns
	out["latency.forward_rt_allocs"] = via0.allocs - direct.allocs

	const delay = 2 * time.Millisecond
	via2, err := measureRung(ctx, rung{name: "latency.delay_overshoot", per: 1, build: func(env *ladderEnv) (func() error, error) {
		return echo(env, true, delay)
	}}, per)
	if err != nil {
		return nil, err
	}
	out["latency.delay_overshoot_us"] = ((via2.ns-direct.ns)/2 - float64(delay.Nanoseconds())) / 1e3
	return out, nil
}
