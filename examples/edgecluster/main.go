// Edgecluster: two cache-enhanced edge servers sharing one back-end —
// the deployment the paper's Figure 4 draws. It demonstrates the two
// properties that make a cluster of edge caches a "single logical
// image":
//
//  1. invalidation: an update committed through edge A evicts the stale
//     entry in edge B's common store, so B's next read is fresh;
//  2. conflict detection: when A and B race on the same account, exactly
//     one commit wins and the loser aborts with a conflict.
//
// It finishes with a bandwidth comparison of the shared path against a
// Clients/RAS deployment serving the same session, reproducing the
// Figure 8 effect in miniature.
//
// Run with: go run ./examples/edgecluster
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/harness"
	"edgeejb/internal/memento"
	"edgeejb/internal/trade"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	topo, err := harness.Build(harness.Options{
		Arch:        harness.ESRBES,
		Algo:        harness.AlgCachedEJB,
		EdgeServers: 2,
		OneWayDelay: 5 * time.Millisecond,
		Populate:    trade.PopulateConfig{Users: 6, Symbols: 12, HoldingsPerUser: 2},
	})
	if err != nil {
		return err
	}
	defer topo.Close()
	fmt.Println("two edge servers sharing one back-end (5ms one-way delay)")

	user := trade.UserID(1)
	edgeA, err := topo.NewWebClientFor(0)
	if err != nil {
		return err
	}
	defer edgeA.Close()
	edgeB, err := topo.NewWebClientFor(1)
	if err != nil {
		return err
	}
	defer edgeB.Close()

	// --- 1. Invalidation across the cluster ---------------------------
	if resp, err := edgeB.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user}); err != nil || !resp.OK {
		return fmt.Errorf("warm edge B: %v", err)
	}
	fmt.Println("\n[invalidation] edge B cached the user's profile")
	if resp, err := edgeA.DoStep(ctx, trade.Step{
		Action: trade.ActionAccountUpdate, UserID: user,
		Address: "7 Cluster Road", Email: "cluster@example.test",
	}); err != nil || !resp.OK {
		return fmt.Errorf("update via edge A: %v", err)
	}
	fmt.Println("[invalidation] edge A committed a profile update")
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := edgeB.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user})
		if err != nil {
			return err
		}
		if resp.OK && containsAddr(resp.Body) {
			fmt.Println("[invalidation] edge B now serves the fresh profile (stale entry evicted)")
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("edge B never saw the update")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- 2. Racing commits conflict -----------------------------------
	// Drive the two cache managers directly so both transactions read
	// the same account version before either commits.
	mgrA, mgrB := topo.Managers[0], topo.Managers[1]
	dtA, err := mgrA.Begin(ctx)
	if err != nil {
		return err
	}
	dtB, err := mgrB.Begin(ctx)
	if err != nil {
		return err
	}
	acctKey := (&trade.Account{UserID: user}).PrimaryKey()
	mA, err := dtA.Load(ctx, acctKey)
	if err != nil {
		return err
	}
	mB, err := dtB.Load(ctx, acctKey)
	if err != nil {
		return err
	}
	mA.Fields["balance"] = memento.Float(mA.Fields["balance"].F + 100)
	mB.Fields["balance"] = memento.Float(mB.Fields["balance"].F + 200)
	if err := dtA.Store(ctx, mA); err != nil {
		return err
	}
	if err := dtB.Store(ctx, mB); err != nil {
		return err
	}
	errA := dtA.Commit(ctx)
	errB := dtB.Commit(ctx)
	fmt.Printf("\n[conflict] edge A commit: %v\n", errOrOK(errA))
	fmt.Printf("[conflict] edge B commit: %v\n", errOrOK(errB))
	if (errA == nil) == (errB == nil) {
		return fmt.Errorf("expected exactly one winner, got A=%v B=%v", errA, errB)
	}
	if !component.IsConflict(firstErr(errA, errB)) {
		return fmt.Errorf("loser did not fail with a conflict: %v", firstErr(errA, errB))
	}
	fmt.Println("[conflict] exactly one edge won; the loser aborted with a version conflict")

	// --- 3. Bandwidth comparison --------------------------------------
	edgeBytes, err := bytesPerInteraction(ctx, topo)
	if err != nil {
		return err
	}
	rasTopo, err := harness.Build(harness.Options{
		Arch:     harness.ClientsRAS,
		Algo:     harness.AlgCachedEJB,
		Populate: trade.PopulateConfig{Users: 6, Symbols: 12, HoldingsPerUser: 2},
	})
	if err != nil {
		return err
	}
	defer rasTopo.Close()
	rasBytes, err := bytesPerInteraction(ctx, rasTopo)
	if err != nil {
		return err
	}
	fmt.Printf("\n[bandwidth] shared-path bytes per interaction: ES/RBES %.0f vs Clients/RAS %.0f (%.1fx)\n",
		edgeBytes, rasBytes, rasBytes/edgeBytes)
	fmt.Println("[bandwidth] the edge cluster ships data, not presentation — the Figure 8 effect")
	return nil
}

func bytesPerInteraction(ctx context.Context, topo *harness.Topology) (float64, error) {
	client := topo.NewWebClient()
	defer client.Close()
	user := trade.UserID(2)
	steps := []trade.Step{
		{Action: trade.ActionLogin, UserID: user, SessionID: "bw"},
		{Action: trade.ActionHome, UserID: user},
		{Action: trade.ActionQuote, UserID: user, Symbol: trade.SymbolID(3)},
		{Action: trade.ActionPortfolio, UserID: user},
		{Action: trade.ActionLogout, UserID: user},
	}
	before := topo.SharedPathStats().Bytes()
	for _, s := range steps {
		resp, err := client.DoStep(ctx, s)
		if err != nil {
			return 0, err
		}
		if !resp.OK {
			return 0, fmt.Errorf("%s failed: %s", s.Action, resp.Err)
		}
	}
	return float64(topo.SharedPathStats().Bytes()-before) / float64(len(steps)), nil
}

func containsAddr(body []byte) bool {
	return bytes.Contains(body, []byte("7 Cluster Road"))
}

func errOrOK(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
