package trade

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// These tests pin the per-action wire round-trip counts that produce the
// paper's latency sensitivities: every round trip on the high-latency
// path costs two one-way delays, so the measured Table 2 slopes are
// (approximately) twice the weighted-average round trips per
// interaction. If a refactor changes these counts, the figures change —
// so the counts are pinned here, per algorithm, over a REAL dbwire
// connection.

// rtEnv wires a trade service over a real wire client so round trips
// can be counted.
type rtEnv struct {
	svc    *Service
	client *dbwire.Client
	mgr    *slicache.Manager
}

func newRTEnv(t testing.TB, algo string) *rtEnv { return newSlowRTEnv(t, algo, 0) }

// newSlowRTEnv is newRTEnv with a delay proxy of the given one-way
// latency on the counted hop (none at 0), where bench/topology.go puts
// it: between the edge and the tier its client dials.
func newSlowRTEnv(t testing.TB, algo string, oneWay time.Duration) *rtEnv {
	t.Helper()
	hop := func(addr string) string {
		if oneWay == 0 {
			return addr
		}
		proxy := latency.NewProxy(addr, oneWay)
		if err := proxy.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proxy.Close)
		return proxy.Addr()
	}
	store := sqlstore.New()
	t.Cleanup(store.Close)
	Populate(store, PopulateConfig{Users: 4, Symbols: 8, HoldingsPerUser: 2, OpenBalance: 100_000})

	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbSrv.Close)

	var (
		client *dbwire.Client
		rm     component.ResourceManager
		mgr    *slicache.Manager
	)
	switch algo {
	case "jdbc":
		client = dbwire.Dial(hop(dbSrv.Addr()))
		rm = component.NewJDBCManager(client)
	case "bmp":
		client = dbwire.Dial(hop(dbSrv.Addr()))
		rm = component.NewBMPManager(client)
	case "sli-combined", "sli-combined-serial":
		// PerImage ships the commit's statements as one batch;
		// PerStatement pays the paper's round trip per memento image,
		// like-with-like beside the unbatched jdbc and bmp above.
		shipping := slicache.PerImage
		if algo == "sli-combined-serial" {
			shipping = slicache.PerStatement
		}
		client = dbwire.Dial(hop(dbSrv.Addr()))
		mgr = slicache.NewManager(client, slicache.WithShipping(shipping))
		rm = mgr
	case "sli-split":
		// The edge counts round trips to the BACK-END; the back-end's
		// own database accesses are on the low-latency path.
		dbClient := dbwire.Dial(dbSrv.Addr())
		t.Cleanup(func() { _ = dbClient.Close() })
		be := backend.NewServer(dbClient)
		if err := be.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(be.Close)
		client = dbwire.Dial(hop(be.Addr()))
		mgr = slicache.NewManager(client, slicache.WithShipping(slicache.WholeSet))
		rm = mgr
	default:
		t.Fatalf("unknown algo %s", algo)
	}
	t.Cleanup(func() { _ = client.Close() })
	if mgr != nil {
		t.Cleanup(mgr.Close)
	}

	reg, err := NewEntityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return &rtEnv{
		svc:    NewService(component.NewContainer(reg, rm)),
		client: client,
		mgr:    mgr,
	}
}

// measure returns the wire round trips consumed by fn.
func (e *rtEnv) measure(t *testing.T, fn func(ctx context.Context) error) uint64 {
	t.Helper()
	ctx := context.Background()
	before := e.client.RoundTrips()
	if err := fn(ctx); err != nil {
		t.Fatal(err)
	}
	return e.client.RoundTrips() - before
}

func TestRoundTripsHomeAction(t *testing.T) {
	user := UserID(0)
	home := func(e *rtEnv) func(context.Context) error {
		return func(ctx context.Context) error { _, err := e.svc.Home(ctx, user); return err }
	}

	// JDBC: begin + select + commit.
	jdbc := newRTEnv(t, "jdbc")
	if got := jdbc.measure(t, home(jdbc)); got != 3 {
		t.Errorf("jdbc home = %d RTs, want 3", got)
	}
	// Vanilla EJB: begin + find + ejbLoad + ejbStore + commit.
	bmp := newRTEnv(t, "bmp")
	if got := bmp.measure(t, home(bmp)); got != 5 {
		t.Errorf("bmp home = %d RTs, want 5", got)
	}
	// Cached (split), warm: a single whole-set validation round trip.
	sli := newRTEnv(t, "sli-split")
	cold := sli.measure(t, home(sli)) // warms the cache
	if got := sli.measure(t, home(sli)); got != 1 {
		t.Errorf("sli-split warm home = %d RTs, want 1 (cold was %d)", got, cold)
	}
	if cold != 2 { // miss fetch + commit validation
		t.Errorf("sli-split cold home = %d RTs, want 2", cold)
	}
	// Cached (combined), warm, one round trip per statement: begin +
	// CheckVersion + commit.
	slis := newRTEnv(t, "sli-combined-serial")
	_ = slis.measure(t, home(slis))
	if got := slis.measure(t, home(slis)); got != 3 {
		t.Errorf("sli-combined-serial warm home = %d RTs, want 3", got)
	}
	// Cached (combined), warm, as shipped: Home only reads, so its
	// commit is one autocommit validation — no begin.
	slic := newRTEnv(t, "sli-combined")
	_ = slic.measure(t, home(slic))
	if got := slic.measure(t, home(slic)); got != 1 {
		t.Errorf("sli-combined warm home = %d RTs, want 1", got)
	}
}

func TestRoundTripsPortfolioAction(t *testing.T) {
	user := UserID(1) // seeded with 2 holdings
	portfolio := func(e *rtEnv) func(context.Context) error {
		return func(ctx context.Context) error { _, err := e.svc.Portfolio(ctx, user); return err }
	}

	// JDBC: begin + select + commit = 3 regardless of result size.
	jdbc := newRTEnv(t, "jdbc")
	if got := jdbc.measure(t, portfolio(jdbc)); got != 3 {
		t.Errorf("jdbc portfolio = %d RTs, want 3", got)
	}
	// Vanilla EJB: begin + finder + N ejbLoads + N ejbStores + commit =
	// 3 + 2N with N = 2 holdings: the N+1 pattern that makes vanilla the
	// most latency-sensitive algorithm.
	bmp := newRTEnv(t, "bmp")
	if got := bmp.measure(t, portfolio(bmp)); got != 7 {
		t.Errorf("bmp portfolio = %d RTs, want 7", got)
	}
	// Cached (split): finder query + whole-set commit = 2, every time
	// (the finder must always consult the persistent store, §2.2).
	sli := newRTEnv(t, "sli-split")
	_ = sli.measure(t, portfolio(sli))
	if got := sli.measure(t, portfolio(sli)); got != 2 {
		t.Errorf("sli-split portfolio = %d RTs, want 2", got)
	}
	// Cached (combined), one round trip per statement: finder query +
	// begin + N validations (N = 2 holdings) + commit.
	slis := newRTEnv(t, "sli-combined-serial")
	_ = slis.measure(t, portfolio(slis))
	if got := slis.measure(t, portfolio(slis)); got != 1+1+2+1 {
		t.Errorf("sli-combined-serial portfolio = %d RTs, want 5", got)
	}
	// Cached (combined), as shipped: finder query + one autocommit
	// validation of the read-only set, whatever N is.
	slic := newRTEnv(t, "sli-combined")
	_ = slic.measure(t, portfolio(slic))
	if got := slic.measure(t, portfolio(slic)); got != 1+1 {
		t.Errorf("sli-combined portfolio = %d RTs, want 2", got)
	}
}

// TestRoundTripsOrderingAcrossAlgorithms drives one full session per
// algorithm and pins the qualitative ordering: split-cached ≪ jdbc ≤
// combined-cached (serial) < vanilla, with the batched combined commit
// strictly between split and serial.
func TestRoundTripsOrderingAcrossAlgorithms(t *testing.T) {
	session := []Step{
		{Action: ActionLogin, UserID: UserID(2), SessionID: "rt"},
		{Action: ActionHome, UserID: UserID(2)},
		{Action: ActionQuote, UserID: UserID(2), Symbol: SymbolID(1)},
		{Action: ActionPortfolio, UserID: UserID(2)},
		{Action: ActionBuy, UserID: UserID(2), Symbol: SymbolID(1), Quantity: 2},
		{Action: ActionSell, UserID: UserID(2)},
		{Action: ActionLogout, UserID: UserID(2)},
	}
	runSession := func(e *rtEnv) uint64 {
		return e.measure(t, func(ctx context.Context) error {
			for _, s := range session {
				var err error
				switch s.Action {
				case ActionLogin:
					_, err = e.svc.Login(ctx, s.UserID, s.SessionID)
				case ActionHome:
					_, err = e.svc.Home(ctx, s.UserID)
				case ActionQuote:
					_, err = e.svc.GetQuote(ctx, s.Symbol)
				case ActionPortfolio:
					_, err = e.svc.Portfolio(ctx, s.UserID)
				case ActionBuy:
					_, err = e.svc.Buy(ctx, s.UserID, s.Symbol, s.Quantity)
				case ActionSell:
					_, err = e.svc.Sell(ctx, s.UserID)
				case ActionLogout:
					err = e.svc.Logout(ctx, s.UserID)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}

	counts := make(map[string]uint64)
	for _, algo := range []string{"jdbc", "bmp", "sli-combined", "sli-combined-serial", "sli-split"} {
		e := newRTEnv(t, algo)
		_ = runSession(e) // warm caches / sessions
		counts[algo] = runSession(e)
	}
	t.Logf("session round trips: %v", counts)

	if !(counts["sli-split"] < counts["jdbc"]) {
		t.Errorf("split-cached (%d) should beat jdbc (%d)", counts["sli-split"], counts["jdbc"])
	}
	if !(counts["jdbc"] < counts["bmp"]) {
		t.Errorf("jdbc (%d) should beat vanilla (%d)", counts["jdbc"], counts["bmp"])
	}
	if !(counts["sli-combined-serial"] < counts["bmp"]) {
		t.Errorf("combined-cached (%d) should beat vanilla (%d)", counts["sli-combined-serial"], counts["bmp"])
	}
	// The split/combined gap is the architectural point of Figure 6.
	if !(2*counts["sli-split"] <= counts["sli-combined-serial"]) {
		t.Errorf("split (%d) should be at most half of combined (%d)", counts["sli-split"], counts["sli-combined-serial"])
	}
	// Batching the combined commit narrows the gap without closing it:
	// a commit that writes still pays begin as its own round trip.
	if !(counts["sli-split"] < counts["sli-combined"] && counts["sli-combined"] < counts["sli-combined-serial"]) {
		t.Errorf("want split (%d) < combined batched (%d) < combined serial (%d)",
			counts["sli-split"], counts["sli-combined"], counts["sli-combined-serial"])
	}
}

// TestRoundTripsColdMultiBeanActions pins the cold-cache counts of the
// actions that read two beans by primary key. Their misses are fetched
// at the same time (component.MultiLoader), which must change when the
// AutoGets cross the wire and never how many do: one per missing bean,
// then the commit — the counts these actions had when the beans were
// fetched one after the other.
func TestRoundTripsColdMultiBeanActions(t *testing.T) {
	user := UserID(1) // seeded with 2 holdings
	actions := []struct {
		name string
		run  func(*rtEnv) func(context.Context) error
		// misses is the store accesses before the commit: an AutoGet per
		// bean, plus Sell's finder.
		misses uint64
		// readOnly actions write nothing, so their combined-servers
		// commit needs no begin.
		readOnly bool
	}{
		{"login", func(e *rtEnv) func(context.Context) error {
			return func(ctx context.Context) error { _, err := e.svc.Login(ctx, user, "cold"); return err }
		}, 2, false},
		{"buy", func(e *rtEnv) func(context.Context) error {
			return func(ctx context.Context) error { _, err := e.svc.Buy(ctx, user, SymbolID(3), 1); return err }
		}, 2, false},
		{"sell", func(e *rtEnv) func(context.Context) error {
			return func(ctx context.Context) error { _, err := e.svc.Sell(ctx, user); return err }
		}, 3, false},
		{"bundle", func(e *rtEnv) func(context.Context) error {
			return func(ctx context.Context) error { _, err := e.svc.BrowseBundle(ctx, user, SymbolID(3)); return err }
		}, 3, true},
	}
	for _, a := range actions {
		// Split servers: the whole-set commit is one round trip.
		split := newRTEnv(t, "sli-split")
		if got, want := split.measure(t, a.run(split)), a.misses+1; got != want {
			t.Errorf("sli-split cold %s = %d RTs, want %d", a.name, got, want)
		}
		// Combined servers: begin + one statement batch, or one
		// autocommit validation when the action only read.
		want := a.misses + 2
		if a.readOnly {
			want = a.misses + 1
		}
		combined := newRTEnv(t, "sli-combined")
		if got := combined.measure(t, a.run(combined)); got != want {
			t.Errorf("sli-combined cold %s = %d RTs, want %d", a.name, got, want)
		}
	}
}
