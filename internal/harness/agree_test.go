package harness

import (
	"context"
	"fmt"
	"testing"

	"edgeejb/internal/deploy"
	"edgeejb/internal/memento"
	"edgeejb/internal/trade"
)

// agreeCell is one deployment the differential oracle runs.
type agreeCell struct {
	pair   Pair
	shards int
	proto  deploy.Protocol
}

func (c agreeCell) String() string {
	return fmt.Sprintf("%s, %d shard(s), %s", c.pair, c.shards, protocolName(c.proto))
}

func protocolName(p deploy.Protocol) string {
	if p == deploy.Paper() {
		return "paper"
	}
	return "shipped"
}

// agreeRun is what one deployment did with the oracle's steps: every
// step's reply, the final rows of every store keyed "table/id", and the
// slow-hop round trips the steps cost.
type agreeRun struct {
	replies []string
	rows    map[string]memento.Fields
	rts     uint64
}

// TestDeploymentsAgree is a differential oracle. ES/RDB, ES/RBES and
// Clients/RAS running JDBC, vanilla EJBs or cached EJBs are alternative
// deployments of one application, so one client driving one seeded
// step stream through each of them must see the same thing everywhere;
// only where the round trips fall may differ. Every AllPairs() cell
// runs with one shard, and ES/RBES, the one architecture that admits
// them, also with two, each under the paper's protocol and under the
// shipped one (statement batching and the finder cache): sixteen
// deployments. The test asserts:
//   - every step's reply (outcome, message and rendered page) is
//     byte-identical across deployments;
//   - the final stores hold identical rows and field values. Versions
//     are left out: a version is the number of the commit that wrote
//     the row, and the deployments commit different numbers of times
//     (vanilla EJBs store unchanged beans, a read-only cached commit
//     takes no number, two shards count separately);
//   - under each protocol, the slow-hop round trips the steps cost
//     order as Table 2 orders the sensitivities: Clients/RAS pays one
//     per interaction whatever the algorithm, ES/RBES cached more but
//     least of the edge cells, and vanilla EJBs the most of all.
func TestDeploymentsAgree(t *testing.T) {
	pop := trade.PopulateConfig{Users: 8, Symbols: 12, HoldingsPerUser: 2}
	gen := trade.NewGenerator(trade.GeneratorConfig{Seed: 46, Users: 8, Symbols: 12})
	var steps []trade.Step
	for len(steps) < 300 {
		steps = append(steps, gen.Session()...)
	}
	seen := map[trade.Action]int{}
	for _, s := range steps {
		seen[s.Action]++
	}
	for _, a := range []trade.Action{trade.ActionRegister, trade.ActionBuy, trade.ActionSell} {
		if seen[a] == 0 {
			t.Fatalf("the step stream holds no %s step: %v", a, seen)
		}
	}

	protocols := []deploy.Protocol{deploy.Paper(), deploy.Shipped()}
	var cells []agreeCell
	for _, proto := range protocols {
		for _, p := range AllPairs() {
			cells = append(cells, agreeCell{p, 1, proto})
			if p.Arch == ESRBES {
				cells = append(cells, agreeCell{p, 2, proto})
			}
		}
	}
	runs := make(map[agreeCell]agreeRun, len(cells))
	for _, cell := range cells {
		run, err := runAgreeCell(cell, pop, steps)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		runs[cell] = run
	}

	ref := cells[0]
	want := runs[ref]
	for _, cell := range cells[1:] {
		got := runs[cell]
		for i := range steps {
			if got.replies[i] != want.replies[i] {
				t.Errorf("%s and %s differ at step %d (%s %s):\n%s",
					ref, cell, i, steps[i].Action, steps[i].UserID, firstDiff(want.replies[i], got.replies[i]))
				break
			}
		}
		if diff := rowsDiff(want.rows, got.rows); diff != "" {
			t.Errorf("%s and %s end with different rows: %s", ref, cell, diff)
		}
	}

	for _, cell := range cells {
		t.Logf("%-45s %5d slow-hop round trips over %d steps", cell, runs[cell].rts, len(steps))
	}
	for _, proto := range protocols {
		rts := func(arch Architecture, algo Algorithm, shards int) uint64 {
			return runs[agreeCell{Pair{arch, algo}, shards, proto}].rts
		}
		name := protocolName(proto)
		for _, algo := range []Algorithm{AlgJDBC, AlgVanillaEJB, AlgCachedEJB} {
			if got := rts(ClientsRAS, algo, 1); got != uint64(len(steps)) {
				t.Errorf("%s: Clients/RAS %s: %d round trips, want one per step (%d)", name, algo, got, len(steps))
			}
		}
		// Table 2: Clients/RAS 2.0 < ES/RBES 3.1 < every ES/RDB cell, and
		// vanilla EJBs the most sensitive of all.
		ras, rbes, jdbc := rts(ClientsRAS, AlgCachedEJB, 1), rts(ESRBES, AlgCachedEJB, 1), rts(ESRDB, AlgJDBC, 1)
		cached, vanilla := rts(ESRDB, AlgCachedEJB, 1), rts(ESRDB, AlgVanillaEJB, 1)
		if !(ras < rbes && rbes < min(jdbc, cached)) {
			t.Errorf("%s: want Clients/RAS (%d) < ES/RBES (%d) < ES/RDB JDBC (%d) and cached (%d)", name, ras, rbes, jdbc, cached)
		}
		if sharded := rts(ESRBES, AlgCachedEJB, 2); sharded >= min(jdbc, cached) {
			t.Errorf("%s: ES/RBES on two shards (%d) should stay below every ES/RDB cell (%d, %d)", name, sharded, jdbc, cached)
		}
		if max(jdbc, cached) >= vanilla {
			t.Errorf("%s: want ES/RDB vanilla EJBs (%d) above JDBC (%d) and cached (%d)", name, vanilla, jdbc, cached)
		}
		// The paper's cached EJBs (13.0) sit above its JDBC (9.4) because of
		// its tooling; one round trip per statement, as the paper ships
		// them, puts ours level with JDBC (EXPERIMENTS.md, Table 2), so the
		// band is TestSensitivityOrdering's. The shipped protocol batches
		// the cached commit and serves repeated finders at the edge, so
		// there cached falls below JDBC.
		if proto == deploy.Paper() {
			if float64(cached) < 0.8*float64(jdbc) || float64(cached) > 1.6*float64(jdbc) {
				t.Errorf("%s: ES/RDB cached (%d) outside [0.8, 1.6]x JDBC (%d)", name, cached, jdbc)
			}
		} else if cached >= jdbc {
			t.Errorf("%s: want ES/RDB cached (%d) below JDBC (%d)", name, cached, jdbc)
		}
	}
}

// runAgreeCell builds one deployment, drives the steps through one web
// client, and reads back every store's rows.
func runAgreeCell(cell agreeCell, pop trade.PopulateConfig, steps []trade.Step) (agreeRun, error) {
	topo, err := Build(Options{Arch: cell.pair.Arch, Algo: cell.pair.Algo, Populate: pop, Shards: cell.shards, Protocol: cell.proto})
	if err != nil {
		return agreeRun{}, err
	}
	defer topo.Close()
	ctx := context.Background()
	client := topo.NewWebClient()
	before := topo.SharedPathStats().RoundTrips
	run := agreeRun{replies: make([]string, len(steps)), rows: map[string]memento.Fields{}}
	for i, step := range steps {
		resp, err := client.DoStep(ctx, step)
		if err != nil {
			return agreeRun{}, fmt.Errorf("step %d (%s): %w", i, step.Action, err)
		}
		run.replies[i] = fmt.Sprintf("ok=%v err=%q\n%s", resp.OK, resp.Err, resp.Body)
	}
	run.rts = topo.SharedPathStats().RoundTrips - before
	for _, s := range topo.Stores {
		tx, err := s.Begin(ctx)
		if err != nil {
			return agreeRun{}, err
		}
		for _, table := range []string{trade.TableAccount, trade.TableProfile, trade.TableHolding, trade.TableQuote, trade.TableRegistry} {
			rows, err := tx.Query(ctx, memento.Query{Table: table})
			if err != nil {
				tx.Abort()
				return agreeRun{}, err
			}
			for _, r := range rows {
				run.rows[r.Key.String()] = r.Fields
			}
		}
		tx.Abort()
	}
	return run, nil
}

// firstDiff renders the neighbourhood of the first byte at which two
// replies differ.
func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	from := max(i-60, 0)
	clip := func(s string) string { return s[min(from, len(s)):min(i+60, len(s))] }
	return fmt.Sprintf("  want …%q…\n  got  …%q…", clip(want), clip(got))
}

// rowsDiff names the first key, in key order, whose row differs
// between two stores' contents ("" when none does).
func rowsDiff(want, got map[string]memento.Fields) string {
	var first string
	note := func(k string) {
		w, wok := want[k]
		g, gok := got[k]
		if (wok != gok || !w.Equal(g)) && (first == "" || k < first) {
			first = k
		}
	}
	for k := range want {
		note(k)
	}
	for k := range got {
		note(k)
	}
	if first == "" {
		return ""
	}
	return fmt.Sprintf("%s is %v, want %v", first, got[first], want[first])
}
