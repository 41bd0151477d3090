// Brokerage: a full Trade deployment on the split-servers (ES/RBES)
// architecture — database server, back-end server, delay proxy, and a
// cache-enhanced edge application server, all on loopback TCP — driven
// by a web client running a realistic brokerage session.
//
// It prints each interaction's latency so the effect of the injected
// wide-area delay is visible: with the SLI cache, browse actions cost
// one validation round trip and trading actions a single whole-set
// commit, regardless of how many beans they touch.
//
// Run with: go run ./examples/brokerage [-delay 20ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"edgeejb/internal/harness"
	"edgeejb/internal/trade"
)

func main() {
	delay := flag.Duration("delay", 20*time.Millisecond, "one-way delay between edge and back-end")
	flag.Parse()
	if err := run(*delay); err != nil {
		log.Fatal(err)
	}
}

func run(delay time.Duration) error {
	topo, err := harness.Build(harness.Options{
		Arch:        harness.ESRBES,
		Algo:        harness.AlgCachedEJB,
		OneWayDelay: delay,
		Populate:    trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 3},
	})
	if err != nil {
		return err
	}
	defer topo.Close()
	fmt.Printf("ES/RBES topology up: edge server %s, back-end behind a %v one-way delay\n\n",
		topo.AppServers[0].Addr(), delay)

	client := topo.NewWebClient()
	defer client.Close()
	ctx := context.Background()
	user := trade.UserID(3)

	session := []trade.Step{
		{Action: trade.ActionLogin, UserID: user, SessionID: "demo-session"},
		{Action: trade.ActionHome, UserID: user},
		{Action: trade.ActionQuote, UserID: user, Symbol: trade.SymbolID(7)},
		{Action: trade.ActionPortfolio, UserID: user},
		{Action: trade.ActionBuy, UserID: user, Symbol: trade.SymbolID(7), Quantity: 5},
		{Action: trade.ActionPortfolio, UserID: user},
		{Action: trade.ActionSell, UserID: user},
		{Action: trade.ActionAccount, UserID: user},
		{Action: trade.ActionLogout, UserID: user},
	}
	for _, step := range session {
		begin := time.Now()
		resp, err := client.DoStep(ctx, step)
		if err != nil {
			return fmt.Errorf("%s: %w", step.Action, err)
		}
		status := "ok"
		if !resp.OK {
			status = "FAILED: " + resp.Err
		}
		fmt.Printf("%-14s %8.1f ms   %6d bytes   %s\n",
			step.Action, float64(time.Since(begin))/float64(time.Millisecond), len(resp.Body), status)
	}

	mgr := topo.Managers[0]
	st := mgr.Stats()
	fmt.Printf("\nedge cache: hits=%d misses=%d commits=%d conflicts=%d entries=%d\n",
		st.Cache.Hits, st.Cache.Misses, st.Commits, st.Conflicts, st.Cache.Entries)
	shared := topo.SharedPathStats()
	fmt.Printf("shared path (edge <-> back-end): %d bytes in %d round trips\n",
		shared.Bytes(), shared.RoundTrips)
	return nil
}
