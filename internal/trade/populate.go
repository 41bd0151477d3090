package trade

import (
	"fmt"
	"math/rand"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// PopulateConfig sizes the initial Trade database.
type PopulateConfig struct {
	// Seed makes the population reproducible.
	Seed int64
	// Users is the number of registered users; each gets an account, a
	// profile and a registry entry.
	Users int
	// Symbols is the number of quoted securities.
	Symbols int
	// HoldingsPerUser is the initial number of positions per user.
	HoldingsPerUser int
	// OpenBalance is each account's starting cash balance.
	OpenBalance float64
}

// DefaultPopulate returns a small but realistic database: enough users
// and symbols that the cache working set is non-trivial, enough holdings
// that portfolio finders return several rows.
func DefaultPopulate() PopulateConfig {
	return PopulateConfig{
		Users:           50,
		Symbols:         100,
		HoldingsPerUser: 4,
		OpenBalance:     1_000_000,
	}
}

// Populate seeds a store with the whole initial Trade database.
func Populate(store *sqlstore.Store, cfg PopulateConfig) { PopulateShard(store, cfg, 1, 0) }

// PopulateShard seeds the store of shard index, one of shards, with the
// rows of the initial Trade database that ShardRing assigns to it, and
// returns how many those are. Every shard derives the identical
// population from the same config and seed, so the shards' stores
// partition it without coordination.
func PopulateShard(store *sqlstore.Store, cfg PopulateConfig, shards, index int) int {
	// The portfolio finder probes holdings by account; index that field
	// the way the Trade schema indexes its HOLDING.ACCOUNT_ACCOUNTID
	// column. Errors are impossible here (fresh store, valid names).
	_ = store.CreateIndex(TableHolding, "accountID")
	ring := ShardRing(shards)
	rows := PopulationRows(cfg)
	owned := rows[:0]
	for _, m := range rows {
		if ring.Of(m.Key) == index {
			owned = append(owned, m)
		}
	}
	store.Seed(owned...)
	return len(owned)
}

// PopulationRows builds the initial Trade database rows without
// installing them.
func PopulationRows(cfg PopulateConfig) []memento.Memento {
	if cfg.Users < 1 {
		cfg.Users = DefaultPopulate().Users
	}
	if cfg.Symbols < 1 {
		cfg.Symbols = DefaultPopulate().Symbols
	}
	if cfg.OpenBalance <= 0 {
		cfg.OpenBalance = DefaultPopulate().OpenBalance
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	mems := make([]memento.Memento, 0, cfg.Symbols+cfg.Users*(3+cfg.HoldingsPerUser))
	for i := 0; i < cfg.Symbols; i++ {
		price := 10 + rng.Float64()*190
		q := &Quote{
			Symbol:  SymbolID(i),
			Company: fmt.Sprintf("Company %d Inc.", i),
			Price:   price,
			Open:    price,
			Low:     price * 0.95,
			High:    price * 1.05,
			Volume:  float64(rng.Intn(1_000_000)),
		}
		mems = append(mems, q.ToMemento())
	}
	for u := 0; u < cfg.Users; u++ {
		user := UserID(u)
		acct := &Account{
			UserID:      user,
			Balance:     cfg.OpenBalance,
			OpenBalance: cfg.OpenBalance,
		}
		prof := &Profile{
			UserID:   user,
			FullName: fmt.Sprintf("Trade User %d", u),
			Address:  fmt.Sprintf("%d Wall St", u),
			Email:    user + "@example.test",
			Password: "pw-" + user,
		}
		reg := &Registry{UserID: user, Created: "2004-11-01T00:00:00Z"}
		mems = append(mems, acct.ToMemento(), prof.ToMemento(), reg.ToMemento())
		for h := 0; h < cfg.HoldingsPerUser; h++ {
			sym := SymbolID(rng.Intn(cfg.Symbols))
			hold := &Holding{
				HoldingID:     fmt.Sprintf("h-%s-seed%d", user, h),
				AccountID:     user,
				Symbol:        sym,
				Quantity:      float64(1 + rng.Intn(20)),
				PurchasePrice: 10 + rng.Float64()*190,
				PurchaseDate:  "2004-11-01T00:00:00Z",
			}
			mems = append(mems, hold.ToMemento())
		}
	}
	return mems
}
