// Quickstart: cache-enabling a transactional component in a few lines.
//
// It builds the smallest possible deployment — one in-process datastore,
// one SLI cache manager — defines a bank-account entity, and shows the
// behaviors that make the framework tick:
//
//  1. transparent caching: the second read of an account costs no
//     datastore access;
//  2. optimistic concurrency: two transactions updating the same account
//     conflict, the loser aborts and retries;
//  3. identical programming model: the same code runs uncached by
//     swapping the resource manager;
//  4. multi-bean find: one Find naming two accounts lets the cache fetch
//     its misses together.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// BankAccount is an entity bean: identity plus memento-serializable
// state.
type BankAccount struct {
	ID      string
	Owner   string
	Balance int64
}

func (a *BankAccount) PrimaryKey() memento.Key {
	return memento.Key{Table: "bank", ID: a.ID}
}

func (a *BankAccount) ToMemento() memento.Memento {
	return memento.Memento{
		Key: a.PrimaryKey(),
		Fields: memento.Fields{
			"owner":   memento.String(a.Owner),
			"balance": memento.Int(a.Balance),
		},
	}
}

func (a *BankAccount) LoadMemento(m memento.Memento) error {
	a.ID = m.Key.ID
	a.Owner = m.Fields["owner"].Str
	a.Balance = m.Fields["balance"].Int
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// The persistent datastore (the paper's DB2 stand-in).
	store := sqlstore.New()
	defer store.Close()

	// A cache-enhanced resource manager over it. WithShipping selects
	// the combined-servers commit path; storeapi.Local would be a
	// dbwire.Dial(...) in a real edge deployment.
	conn := storeapi.NewCountingConn(storeapi.Local(store))
	mgr := slicache.NewManager(conn, slicache.WithShipping(slicache.PerImage))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		return err
	}

	registry, err := component.NewRegistry(component.Descriptor{
		Table: "bank",
		New:   func() component.Entity { return &BankAccount{} },
	})
	if err != nil {
		return err
	}
	container := component.NewContainer(registry, mgr)

	// 1. Create an account.
	err = container.Execute(ctx, func(tx *component.Tx) error {
		return tx.Create(&BankAccount{ID: "acct-1", Owner: "ada", Balance: 100})
	})
	if err != nil {
		return err
	}
	fmt.Println("created acct-1 with balance 100")

	// 2. Transparent caching: the read below is served from the common
	// transient store — no cache-miss fetch reaches the datastore.
	missesBefore := mgr.Stats().MissFetches
	err = container.Execute(ctx, func(tx *component.Tx) error {
		acct := &BankAccount{ID: "acct-1"}
		if err := tx.Find(acct); err != nil {
			return err
		}
		fmt.Printf("read %s: owner=%s balance=%d\n", acct.ID, acct.Owner, acct.Balance)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("cache hit: %d miss fetches during the read (commit validation still runs; %d statements total so far)\n",
		mgr.Stats().MissFetches-missesBefore, conn.Ops())

	// 3. Optimistic concurrency: a second cache manager (another edge
	// server) updates the account behind our back; our stale update
	// aborts with a conflict, and ExecuteRetry wins on the second try.
	other := slicache.NewManager(storeapi.Local(store))
	defer other.Close()
	otherContainer := component.NewContainer(registry, other)
	err = otherContainer.Execute(ctx, func(tx *component.Tx) error {
		return tx.Create(&BankAccount{ID: "acct-2", Owner: "grace"})
	})
	if err != nil {
		return err
	}

	sabotaged := false
	err = container.ExecuteRetry(ctx, 3, func(tx *component.Tx) error {
		acct := &BankAccount{ID: "acct-1"}
		if err := tx.Find(acct); err != nil {
			return err
		}
		if !sabotaged {
			sabotaged = true
			// Concurrent writer on the other edge server.
			if err := otherContainer.Execute(ctx, func(tx2 *component.Tx) error {
				a2 := &BankAccount{ID: "acct-1"}
				if err := tx2.Find(a2); err != nil {
					return err
				}
				a2.Balance += 1000
				return tx2.Update(a2)
			}); err != nil {
				return err
			}
			fmt.Println("another edge server deposited 1000 concurrently...")
		}
		acct.Balance -= 30
		return tx.Update(acct)
	})
	if err != nil {
		return err
	}
	fmt.Printf("conflicts detected and retried: %d\n", mgr.Stats().Conflicts)

	// 4. One Find, two beans: a transfer needs both accounts and neither
	// lookup depends on the other, so it names them together. The cache
	// fetches the ones it misses concurrently — acct-2 has not been read
	// yet, acct-1 is cached — where JDBC or BMP would load them in order.
	err = container.Execute(ctx, func(tx *component.Tx) error {
		from, to := &BankAccount{ID: "acct-1"}, &BankAccount{ID: "acct-2"}
		if err := tx.Find(from, to); err != nil {
			return err
		}
		from.Balance -= 70
		to.Balance += 70
		if err := tx.Update(from); err != nil {
			return err
		}
		return tx.Update(to)
	})
	if err != nil {
		return err
	}
	fmt.Println("transferred 70 from acct-1 to acct-2")

	// Final state: every update applied exactly once.
	return container.Execute(ctx, func(tx *component.Tx) error {
		acct := &BankAccount{ID: "acct-1"}
		if err := tx.Find(acct); err != nil {
			return err
		}
		fmt.Printf("final balance = %d (100 + 1000 - 30 - 70)\n", acct.Balance)
		if acct.Balance != 1000 {
			return fmt.Errorf("unexpected balance %d", acct.Balance)
		}
		return nil
	})
}
