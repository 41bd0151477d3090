package component

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestManagerBatchingReducesRoundTrips runs each pessimistic manager
// under both executors against a real wire stack. The two must issue the
// same statements (counted at the database, behind the wire) and hand
// the application the same rows, the batched one in strictly fewer round
// trips; and a statement that fails mid-list must leave the same error
// and the same released transaction behind either way.
func TestManagerBatchingReducesRoundTrips(t *testing.T) {
	type stack struct {
		store  *sqlstore.Store
		stmts  *storeapi.CountingConn // statements the database executed
		client *dbwire.Client
	}
	newStack := func(t *testing.T) stack {
		t.Helper()
		store := sqlstore.New(sqlstore.WithLockTimeout(150 * time.Millisecond))
		t.Cleanup(store.Close)
		for _, id := range []string{"a", "b"} {
			store.Seed(memento.Memento{
				Key:    memento.Key{Table: "item", ID: id},
				Fields: memento.Fields{"owner": memento.String("x"), "n": memento.Int(1)},
			})
		}
		stmts := storeapi.NewCountingConn(storeapi.Local(store))
		srv := dbwire.NewServer(stmts)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		client := dbwire.Dial(srv.Addr())
		t.Cleanup(func() { _ = client.Close() })
		return stack{store: store, stmts: stmts, client: client}
	}

	// kinds is the per-kind statement tally the store keeps.
	type kinds struct{ begins, gets, puts, queries, commits, aborts uint64 }
	kindsOf := func(s sqlstore.Stats) kinds {
		return kinds{s.Begins, s.Gets, s.Puts, s.Queries, s.Commits, s.Aborts}
	}

	managers := map[string]func(storeapi.Conn, ...ManagerOption) ResourceManager{
		"jdbc": func(c storeapi.Conn, o ...ManagerOption) ResourceManager { return NewJDBCManager(c, o...) },
		"bmp":  func(c storeapi.Conn, o ...ManagerOption) ResourceManager { return NewBMPManager(c, o...) },
	}
	executors := []struct {
		name string
		opts []ManagerOption
	}{
		{"serial", []ManagerOption{WithBatching(false)}},
		{"batched", []ManagerOption{WithBatching(true)}},
	}
	ctx := context.Background()

	for name, mk := range managers {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				rows       []item // everything the application was handed
				roundTrips uint64
				stmts      uint64
				kinds      kinds
			}
			outcomes := make(map[string]outcome)
			for _, ex := range executors {
				s := newStack(t)
				var out outcome
				// A finder, then two direct accesses with updates: every
				// exchange the managers build a statement list for.
				interaction := func(tx *Tx) error {
					found, err := tx.FindWhere(memento.Query{
						Table: "item",
						Where: []memento.Predicate{memento.Where("owner", memento.String("x"))},
					})
					if err != nil {
						return err
					}
					for _, e := range found {
						out.rows = append(out.rows, *e.(*item))
					}
					sort.Slice(out.rows, func(i, j int) bool { return out.rows[i].ID < out.rows[j].ID })
					for _, id := range []string{"a", "b"} {
						it := &item{ID: id}
						if err := tx.Find(it); err != nil {
							return err
						}
						out.rows = append(out.rows, *it)
						it.N++
						if err := tx.Update(it); err != nil {
							return err
						}
					}
					return nil
				}
				c := NewContainer(itemRegistry(t), mk(s.client, ex.opts...))
				if err := c.Execute(ctx, interaction); err != nil {
					t.Fatalf("%s interaction: %v", ex.name, err)
				}
				// Each executor runs on a stack of its own, so the totals are
				// this interaction's.
				out.roundTrips = s.client.RoundTrips()
				out.stmts = s.stmts.Ops()
				out.kinds = kindsOf(s.store.Stats())
				outcomes[ex.name] = out

				for _, id := range []string{"a", "b"} {
					res, err := storeapi.Local(s.store).AutoGet(ctx, "item", id)
					if err != nil {
						t.Fatal(err)
					}
					if res.Mem.Fields["n"].Int != 2 {
						t.Errorf("%s: item %s n = %d, want 2", ex.name, id, res.Mem.Fields["n"].Int)
					}
				}
			}
			serial, batched := outcomes["serial"], outcomes["batched"]
			if batched.roundTrips >= serial.roundTrips {
				t.Errorf("batched interaction cost %d round trips, serial %d — batching must win",
					batched.roundTrips, serial.roundTrips)
			}
			if serial.stmts != batched.stmts || serial.kinds != batched.kinds {
				t.Errorf("the database executed %d statements %+v serially, %d %+v batched — want the same",
					serial.stmts, serial.kinds, batched.stmts, batched.kinds)
			}
			if !reflect.DeepEqual(serial.rows, batched.rows) {
				t.Errorf("application saw %+v serially, %+v batched", serial.rows, batched.rows)
			}
			t.Logf("round trips: serial=%d batched=%d over %d statements",
				serial.roundTrips, batched.roundTrips, serial.stmts)

			for _, ex := range executors {
				t.Run(ex.name+"/failed write-back aborts", func(t *testing.T) {
					s := newStack(t)
					// Another transaction holds row b for longer than the lock
					// timeout, so the write-back of b fails inside the list.
					blocker, err := s.store.Begin(ctx)
					if err != nil {
						t.Fatal(err)
					}
					defer blocker.Abort()
					if _, err := blocker.GetForUpdate(ctx, "item", "b"); err != nil {
						t.Fatal(err)
					}
					dt, err := mk(s.client, ex.opts...).Begin(ctx)
					if err != nil {
						t.Fatal(err)
					}
					a, err := dt.Load(ctx, memento.Key{Table: "item", ID: "a"})
					if err != nil {
						t.Fatal(err)
					}
					b := a.Clone()
					b.Key.ID = "b"
					for _, m := range []memento.Memento{a, b} {
						if err := dt.Store(ctx, m); err != nil {
							t.Fatal(err)
						}
					}
					err = dt.Commit(ctx)
					if !errors.Is(err, sqlstore.ErrConflict) || !strings.Contains(err.Error(), "item/b") {
						t.Fatalf("commit = %v, want the conflict on item/b's write-back", err)
					}
					// The manager released the transaction itself: row a, which
					// it had locked, is free at once.
					follower, err := s.store.Begin(ctx)
					if err != nil {
						t.Fatal(err)
					}
					defer follower.Abort()
					if _, err := follower.GetForUpdate(ctx, "item", "a"); err != nil {
						t.Errorf("row a still locked after the failed commit: %v", err)
					}
				})
				t.Run(ex.name+"/missing row", func(t *testing.T) {
					s := newStack(t)
					dt, err := mk(s.client, ex.opts...).Begin(ctx)
					if err != nil {
						t.Fatal(err)
					}
					defer dt.Abort(ctx)
					_, err = dt.Load(ctx, memento.Key{Table: "item", ID: "nope"})
					if !errors.Is(err, sqlstore.ErrNotFound) || errors.Is(err, storeapi.ErrStmtSkipped) {
						t.Errorf("Load of a missing row = %v, want ErrNotFound", err)
					}
				})
			}
		})
	}
}
