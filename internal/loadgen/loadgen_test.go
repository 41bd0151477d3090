package loadgen

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"edgeejb/internal/appserver"
	"edgeejb/internal/component"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// newTarget starts an application server over a populated store and
// returns its address.
func newTarget(t *testing.T) string {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	trade.Populate(store, trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2})
	reg, err := trade.NewEntityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	svc := trade.NewService(component.NewContainer(reg, component.NewJDBCManager(storeapi.Local(store))))
	srv := appserver.NewServer(svc)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.Addr()
}

// newClients dials n web clients to addr, closed at cleanup.
func newClients(t *testing.T, addr string, n int) []*appserver.Client {
	t.Helper()
	clients := make([]*appserver.Client, n)
	for i := range clients {
		clients[i] = appserver.NewClient(addr)
		t.Cleanup(func() { _ = clients[i].Close() })
	}
	return clients
}

func oneGenerator(seed int64) []*trade.Generator {
	return []*trade.Generator{trade.NewGenerator(trade.GeneratorConfig{Seed: seed, Users: 10, Symbols: 20})}
}

func TestRunMeasuresSessions(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Clients:    newClients(t, newTarget(t), 1),
		Generators: oneGenerator(3),
		Sessions:   5,
		Batches:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions < 5*3 {
		t.Errorf("interactions = %d, too few", res.Interactions)
	}
	if res.Latency.Mean <= 0 {
		t.Errorf("mean latency = %v", res.Latency.Mean)
	}
	if len(res.BatchMeans) != 4 {
		t.Errorf("batch means = %d, want 4", len(res.BatchMeans))
	}
	if res.Failures != 0 || res.Retries != 0 || res.Abandoned != 0 || res.Completed != 5 {
		t.Errorf("failures/retries/abandoned/completed = %d/%d/%d/%d, want 0/0/0/5",
			res.Failures, res.Retries, res.Abandoned, res.Completed)
	}
	if _, ok := res.PerAction["login"]; !ok {
		t.Error("login missing from per-action stats")
	}
	if res.Elapsed <= 0 || res.Throughput <= 0 {
		t.Errorf("elapsed %v, throughput %v not measured", res.Elapsed, res.Throughput)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("missing clients accepted")
	}
}

func TestRunReportsConfidenceInterval(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Clients:    newClients(t, newTarget(t), 1),
		Generators: oneGenerator(4),
		Sessions:   6,
		Batches:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CI95 <= 0 {
		t.Errorf("CI95 = %v, want positive for noisy latencies", res.CI95)
	}
	// The CI must be plausible: no wider than the full latency range.
	if res.CI95 > res.Latency.Max-res.Latency.Min {
		t.Errorf("CI95 %v wider than the observed range", res.CI95)
	}
}

func TestRunConcurrentAggregates(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Clients:    newClients(t, newTarget(t), 3),
		Generators: Generators(trade.GeneratorConfig{Seed: 9, Users: 10, Symbols: 20}, 3),
		Sessions:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3*4 {
		t.Errorf("completed = %d, want 12", res.Completed)
	}
	if res.Interactions < 3*4*3 {
		t.Errorf("interactions = %d, too few", res.Interactions)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if res.Latency.Mean <= 0 || len(res.PerAction) == 0 {
		t.Errorf("latency = %+v, per-action = %v", res.Latency, res.PerAction)
	}
}

func TestRunConcurrentValidates(t *testing.T) {
	clients := []*appserver.Client{appserver.NewClient("127.0.0.1:1"), appserver.NewClient("127.0.0.1:1")}
	if _, err := Run(context.Background(), Config{Clients: clients, Generators: oneGenerator(1)}); err == nil {
		t.Fatal("two clients with one generator accepted")
	}
}

// Clients must not replay identical sessions: with many clients and a
// tiny workload, identical seeds would make all clients hammer the same
// user in the same order. Client c is seeded Seed*1000+c+1.
func TestRunConcurrentDistinctSeeds(t *testing.T) {
	wl := trade.GeneratorConfig{Seed: 5, Users: 10, Symbols: 20}
	gens := Generators(wl, 3)
	var firsts [][]trade.Step
	for c, g := range gens {
		want := wl
		want.Seed = 5*1000 + int64(c) + 1
		s := g.Session()
		if w := trade.NewGenerator(want).Session(); !reflect.DeepEqual(s, w) {
			t.Errorf("client %d: not seeded %d", c, want.Seed)
		}
		firsts = append(firsts, s)
	}
	for a := range firsts {
		for b := a + 1; b < len(firsts); b++ {
			if reflect.DeepEqual(firsts[a], firsts[b]) {
				t.Errorf("clients %d and %d drew identical first sessions", a, b)
			}
		}
	}
}

// relay is an application server in front of a real one: it records
// every action it receives, in order, and forwards it upstream, except
// that request number i (from 0) hangs up the connection when
// hangup[i] and answers !OK when reject(i).
type relay struct {
	up     *appserver.Client
	hangup map[int]bool
	reject func(int) bool

	mu   sync.Mutex
	seen []string
}

func newRelay(t *testing.T, hangup map[int]bool, reject func(int) bool) (*relay, string) {
	t.Helper()
	r := &relay{up: newClients(t, newTarget(t), 1)[0], hangup: hangup, reject: reject}
	srv := wire.NewServer(func() wire.ConnHandler { return r })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return r, srv.Addr()
}

func (r *relay) NewRequest() any { return new(appserver.Request) }

func (r *relay) Handle(ctx context.Context, sess *wire.Session, _ uint64, body any) any {
	req := body.(*appserver.Request)
	r.mu.Lock()
	n := len(r.seen)
	r.seen = append(r.seen, req.Action)
	r.mu.Unlock()
	if r.hangup[n] {
		sess.Hangup()
		return nil
	}
	if r.reject != nil && r.reject(n) {
		return &appserver.Response{Err: "injected"}
	}
	resp, err := r.up.Do(ctx, req)
	if err != nil {
		return &appserver.Response{Err: err.Error()}
	}
	return resp
}

func (r *relay) Close() {}

func (r *relay) actions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.seen...)
}

// expectActions replays the failure rule over a twin generator: it
// returns the actions a run of the given sessions sends when the
// requests numbered in failed end their session, and the number of
// session retries that costs.
func expectActions(gen *trade.Generator, sessions int, failed func(int) bool) (actions []string, retries int) {
	for s := 0; s < sessions; s++ {
		for attempt := 0; ; attempt++ {
			ok := true
			for _, step := range gen.Session() {
				n := len(actions)
				actions = append(actions, step.Action.String())
				if failed(n) {
					ok = false
					break
				}
			}
			if ok || attempt == sessionRetries {
				break
			}
			retries++
		}
	}
	return actions, retries
}

// TestRunKeepsSweepStepSequence runs a sweep's pattern — a warmup Run,
// then a measured Run over the same client and generator — and checks
// the server saw exactly the generator's steps, in order.
func TestRunKeepsSweepStepSequence(t *testing.T) {
	r, addr := newRelay(t, nil, nil)
	cfg := Config{Clients: newClients(t, addr, 1), Generators: oneGenerator(21), Sessions: 2}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Sessions = 5
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	never := func(int) bool { return false }
	twin := oneGenerator(21)[0]
	warm, _ := expectActions(twin, 2, never)
	measured, _ := expectActions(twin, 5, never)
	want := append(warm, measured...)
	if got := r.actions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("server saw %v,\nwant the generator's %v", got, want)
	}
	if res.Interactions != len(measured) || res.Completed != 5 {
		t.Errorf("measured run: %d interactions, %d sessions, want %d, 5",
			res.Interactions, res.Completed, len(measured))
	}
}

// TestRunFaultedSessionIsRetried injects both kinds of step failure — a
// transport error (the server hangs up) and an !OK answer — and checks
// each ended its session, the session was retried from a fresh one, and
// the failed steps stayed out of the measurements.
func TestRunFaultedSessionIsRetried(t *testing.T) {
	failed := map[int]bool{3: true, 11: true}
	r, addr := newRelay(t, map[int]bool{3: true}, func(n int) bool { return n == 11 })
	const sessions = 4
	res, err := Run(context.Background(), Config{
		Clients:    newClients(t, addr, 1),
		Generators: oneGenerator(8),
		Sessions:   sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, retries := expectActions(oneGenerator(8)[0], sessions, func(n int) bool { return failed[n] })
	got := r.actions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server saw %v,\nwant %v", got, want)
	}
	if res.Failures != 2 || res.Retries != 2 || retries != 2 {
		t.Errorf("failures = %d, retries = %d (replay %d), want 2 each", res.Failures, res.Retries, retries)
	}
	if res.Completed != sessions || res.Abandoned != 0 {
		t.Errorf("completed/abandoned = %d/%d, want %d/0", res.Completed, res.Abandoned, sessions)
	}
	if ok := len(got) - 2; res.Interactions != ok || res.Latency.N != ok {
		t.Errorf("interactions = %d, latency samples = %d, want the %d that succeeded",
			res.Interactions, res.Latency.N, ok)
	}
	perAction := 0
	for _, s := range res.PerAction {
		perAction += s.N
	}
	if perAction != res.Interactions {
		t.Errorf("per-action samples = %d, want %d", perAction, res.Interactions)
	}
	if want := float64(res.Interactions) / res.Elapsed.Seconds(); res.Throughput != want {
		t.Errorf("throughput = %v, want %v successful interactions/s", res.Throughput, want)
	}
}

// TestRunFaultAbandonsSession rejects every step: each session spends
// its whole retry budget and is abandoned, and Run says so.
func TestRunFaultAbandonsSession(t *testing.T) {
	r, addr := newRelay(t, nil, func(int) bool { return true })
	res, err := Run(context.Background(), Config{
		Clients:    newClients(t, addr, 1),
		Generators: oneGenerator(2),
		Sessions:   2,
	})
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("err = %v, want ErrAbandoned", err)
	}
	attempts := 2 * (1 + sessionRetries)
	if res.Abandoned != 2 || res.Completed != 0 || res.Retries != 2*sessionRetries || res.Failures != attempts {
		t.Errorf("abandoned/completed/retries/failures = %d/%d/%d/%d, want 2/0/%d/%d",
			res.Abandoned, res.Completed, res.Retries, res.Failures, 2*sessionRetries, attempts)
	}
	if n := len(r.actions()); n != attempts {
		t.Errorf("server saw %d steps, want one per attempt (%d)", n, attempts)
	}
	if res.Interactions != 0 || res.Throughput != 0 {
		t.Errorf("interactions = %d, throughput = %v, want nothing measured", res.Interactions, res.Throughput)
	}
}
