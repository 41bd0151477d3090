package trade

import (
	"context"
	"fmt"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// newService builds the trade service over a fresh populated store with
// the given resource-manager constructor, so every service test runs
// against all three algorithms.
func newService(t *testing.T, buildRM func(storeapi.Conn) component.ResourceManager) (*Service, *sqlstore.Store) {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	Populate(store, PopulateConfig{Users: 5, Symbols: 10, HoldingsPerUser: 2, OpenBalance: 10_000})
	reg, err := NewEntityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	rm := buildRM(storeapi.Local(store))
	return NewService(component.NewContainer(reg, rm)), store
}

// allRMs lists the three algorithms of §4.3.
func allRMs() map[string]func(storeapi.Conn) component.ResourceManager {
	return map[string]func(storeapi.Conn) component.ResourceManager{
		"jdbc": func(c storeapi.Conn) component.ResourceManager { return component.NewJDBCManager(c) },
		"bmp":  func(c storeapi.Conn) component.ResourceManager { return component.NewBMPManager(c) },
		"sli":  func(c storeapi.Conn) component.ResourceManager { return slicache.NewManager(c) },
	}
}

func TestServiceActionsUnderEveryAlgorithm(t *testing.T) {
	for name, build := range allRMs() {
		build := build
		t.Run(name, func(t *testing.T) {
			svc, _ := newService(t, build)
			ctx := context.Background()
			user := UserID(0)

			login, err := svc.Login(ctx, user, "sess-1")
			if err != nil {
				t.Fatalf("login: %v", err)
			}
			if login.Balance != 10_000 {
				t.Errorf("login balance = %v", login.Balance)
			}

			home, err := svc.Home(ctx, user)
			if err != nil {
				t.Fatalf("home: %v", err)
			}
			if home.Balance != 10_000 {
				t.Errorf("home balance = %v", home.Balance)
			}

			acct, err := svc.Account(ctx, user)
			if err != nil {
				t.Fatalf("account: %v", err)
			}
			if acct.FullName == "" {
				t.Error("account missing profile data")
			}

			if err := svc.AccountUpdate(ctx, user, "9 New Rd", "new@example.test"); err != nil {
				t.Fatalf("account update: %v", err)
			}
			acct2, err := svc.Account(ctx, user)
			if err != nil {
				t.Fatal(err)
			}
			if acct2.Address != "9 New Rd" || acct2.Email != "new@example.test" {
				t.Errorf("update not visible: %+v", acct2)
			}

			pf, err := svc.Portfolio(ctx, user)
			if err != nil {
				t.Fatalf("portfolio: %v", err)
			}
			if len(pf.Holdings) != 2 {
				t.Errorf("portfolio size = %d, want 2 seeded", len(pf.Holdings))
			}

			q, err := svc.GetQuote(ctx, SymbolID(1))
			if err != nil {
				t.Fatalf("quote: %v", err)
			}
			if q.Price <= 0 {
				t.Errorf("quote price = %v", q.Price)
			}

			buy, err := svc.Buy(ctx, user, SymbolID(1), 3)
			if err != nil {
				t.Fatalf("buy: %v", err)
			}
			wantBalance := 10_000 - 3*q.Price
			if diff := buy.Balance - wantBalance; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("buy balance = %v, want %v", buy.Balance, wantBalance)
			}
			pf2, _ := svc.Portfolio(ctx, user)
			if len(pf2.Holdings) != 3 {
				t.Errorf("portfolio after buy = %d, want 3", len(pf2.Holdings))
			}

			sell, err := svc.Sell(ctx, user)
			if err != nil {
				t.Fatalf("sell: %v", err)
			}
			if !sell.Sold {
				t.Error("sell found nothing to sell")
			}
			pf3, _ := svc.Portfolio(ctx, user)
			if len(pf3.Holdings) != 2 {
				t.Errorf("portfolio after sell = %d, want 2", len(pf3.Holdings))
			}

			if err := svc.Register(ctx, "fresh-user", "Fresh User", "f@example.test", 500); err != nil {
				t.Fatalf("register: %v", err)
			}
			if _, err := svc.Login(ctx, "fresh-user", "sess-2"); err != nil {
				t.Fatalf("login as registered user: %v", err)
			}

			if err := svc.Logout(ctx, user); err != nil {
				t.Fatalf("logout: %v", err)
			}
		})
	}
}

func TestLoginUpdatesRegistry(t *testing.T) {
	svc, store := newService(t, func(c storeapi.Conn) component.ResourceManager {
		return component.NewJDBCManager(c)
	})
	ctx := context.Background()
	user := UserID(1)
	if _, err := svc.Login(ctx, user, "sess-9"); err != nil {
		t.Fatal(err)
	}
	res, err := storeapi.Local(store).AutoGet(ctx, TableRegistry, user)
	if err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	if err := reg.LoadMemento(res.Mem); err != nil {
		t.Fatal(err)
	}
	if !reg.Active || reg.SessionID != "sess-9" || reg.Visits != 1 {
		t.Errorf("registry after login = %+v", reg)
	}
	if err := svc.Logout(ctx, user); err != nil {
		t.Fatal(err)
	}
	res, _ = storeapi.Local(store).AutoGet(ctx, TableRegistry, user)
	_ = reg.LoadMemento(res.Mem)
	if reg.Active || reg.SessionID != "" {
		t.Errorf("registry after logout = %+v", reg)
	}
}

func TestBuyInsufficientFunds(t *testing.T) {
	svc, _ := newService(t, func(c storeapi.Conn) component.ResourceManager {
		return component.NewJDBCManager(c)
	})
	ctx := context.Background()
	if _, err := svc.Buy(ctx, UserID(0), SymbolID(0), 1e9); err == nil {
		t.Fatal("expected insufficient-funds error")
	}
	// The failed buy must not have deducted anything.
	home, err := svc.Home(ctx, UserID(0))
	if err != nil {
		t.Fatal(err)
	}
	if home.Balance != 10_000 {
		t.Errorf("balance after failed buy = %v, want 10000", home.Balance)
	}
}

func TestSellEmptyPortfolio(t *testing.T) {
	svc, _ := newService(t, func(c storeapi.Conn) component.ResourceManager {
		return component.NewJDBCManager(c)
	})
	ctx := context.Background()
	user := UserID(2)
	// Drain the portfolio.
	for i := 0; i < 2; i++ {
		if _, err := svc.Sell(ctx, user); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.Sell(ctx, user)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sold {
		t.Error("sold from an empty portfolio")
	}
}

func TestBuySellConservesValue(t *testing.T) {
	// Buying then selling the same quantity at an unchanged quote must
	// restore the balance exactly — a money-conservation invariant
	// across the whole component stack.
	for name, build := range allRMs() {
		build := build
		t.Run(name, func(t *testing.T) {
			svc, _ := newService(t, build)
			ctx := context.Background()
			user := UserID(3)
			// Empty the seeded portfolio first so Sell hits our buy.
			for {
				res, err := svc.Sell(ctx, user)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Sold {
					break
				}
			}
			before, err := svc.Home(ctx, user)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Buy(ctx, user, SymbolID(4), 5); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Sell(ctx, user); err != nil {
				t.Fatal(err)
			}
			after, err := svc.Home(ctx, user)
			if err != nil {
				t.Fatal(err)
			}
			if diff := after.Balance - before.Balance; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("balance drifted by %v across buy+sell", diff)
			}
		})
	}
}

func TestRegisterDuplicateFails(t *testing.T) {
	svc, _ := newService(t, func(c storeapi.Conn) component.ResourceManager {
		return component.NewJDBCManager(c)
	})
	ctx := context.Background()
	if err := svc.Register(ctx, UserID(0), "Dup", "d@example.test", 100); err == nil {
		t.Fatal("duplicate register succeeded")
	}
}

func TestServiceSetClock(t *testing.T) {
	svc, store := newService(t, func(c storeapi.Conn) component.ResourceManager {
		return component.NewJDBCManager(c)
	})
	svc.SetClock(func() string { return "2026-07-06T00:00:00Z" })
	ctx := context.Background()
	if _, err := svc.Buy(ctx, UserID(0), SymbolID(0), 1); err != nil {
		t.Fatal(err)
	}
	qres, err := storeapi.Local(store).AutoQuery(ctx, HoldingsByAccount(UserID(0)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range qres.Mems {
		if m.Fields["purchaseDate"].Str == "2026-07-06T00:00:00Z" {
			found = true
		}
	}
	if !found {
		t.Error("clock override not used for purchase date")
	}
}

func ExampleService_GetQuote() {
	store := sqlstore.New()
	defer store.Close()
	store.Seed((&Quote{Symbol: "s-0", Company: "ACME", Price: 42}).ToMemento())
	reg, _ := NewEntityRegistry()
	svc := NewService(component.NewContainer(reg, component.NewJDBCManager(storeapi.Local(store))))
	q, _ := svc.GetQuote(context.Background(), "s-0")
	fmt.Printf("%s trades at $%.2f\n", q.Symbol, q.Price)
	// Output: s-0 trades at $42.00
}

func TestBrowseBundle(t *testing.T) {
	for name, build := range allRMs() {
		build := build
		t.Run(name, func(t *testing.T) {
			svc, _ := newService(t, build)
			ctx := context.Background()
			res, err := svc.BrowseBundle(ctx, UserID(0), SymbolID(2))
			if err != nil {
				t.Fatal(err)
			}
			if res.Home.Balance != 10_000 {
				t.Errorf("bundle home balance = %v", res.Home.Balance)
			}
			if res.Quote.Price <= 0 {
				t.Errorf("bundle quote price = %v", res.Quote.Price)
			}
			if len(res.Portfolio.Holdings) != 2 {
				t.Errorf("bundle portfolio = %d holdings, want 2", len(res.Portfolio.Holdings))
			}
		})
	}
}
