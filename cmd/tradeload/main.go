// Command tradeload is the load-generation program of §4.1 as a
// standalone binary: it drives Trade sessions against an application
// server (cmd/edged) from a dedicated machine and reports latency
// statistics. With -clients > 1 it runs the concurrent-load extension:
// the same driver, the same report, more virtual clients.
//
// A full multi-host reproduction:
//
//	hostA$ dbserverd  -addr :7000
//	hostB$ delayproxy -listen :7200 -target hostA:7000 -delay 25ms
//	hostC$ backendd   -addr :7001 -db hostB:7200
//	hostD$ edged      -addr :7100 -target hostC:7001 -algo sli-backend
//	hostE$ tradeload  -target hostD:7100 -sessions 300 -warmup 400
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"edgeejb/internal/appserver"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/trade"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tradeload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tradeload", flag.ContinueOnError)
	var (
		target   = fs.String("target", "127.0.0.1:7100", "application server address")
		sessions = fs.Int("sessions", 300, "measured sessions (paper: 300)")
		warmup   = fs.Int("warmup", 400, "warmup sessions (paper: 400)")
		batches  = fs.Int("batches", 20, "latency batches (paper: 20)")
		clients  = fs.Int("clients", 1, "concurrent virtual clients (1 = the paper's low-load setup)")
		users    = fs.Int("users", 50, "user population the server was seeded with")
		symbols  = fs.Int("symbols", 100, "symbol population the server was seeded with")
		seed     = fs.Int64("seed", 42, "workload random seed")
		perAct   = fs.Bool("actions", false, "print per-action latency breakdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	clientsN := max(*clients, 1)
	conns := make([]*appserver.Client, clientsN)
	for i := range conns {
		conns[i] = appserver.NewClient(*target)
		defer conns[i].Close()
	}
	load := loadgen.Config{
		Clients:    conns,
		Generators: loadgen.Generators(trade.GeneratorConfig{Seed: *seed, Users: *users, Symbols: *symbols}, clientsN),
		Batches:    *batches,
	}

	// The warmup runs on the first client alone, whose generator then
	// streams on into the measured sessions.
	if *warmup > 0 {
		warm := load
		warm.Clients, warm.Generators, warm.Sessions = conns[:1], load.Generators[:1], *warmup
		if _, err := loadgen.Run(ctx, warm); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	load.Sessions = *sessions / clientsN
	res, runErr := loadgen.Run(ctx, load)
	if runErr != nil && !errors.Is(runErr, loadgen.ErrAbandoned) {
		return runErr
	}
	fmt.Printf("clients=%d interactions=%d elapsed=%v\n", clientsN, res.Interactions, res.Elapsed.Round(1e6))
	fmt.Printf("throughput=%.1f interactions/s\n", res.Throughput)
	fmt.Printf("latency ms: mean=%.2f ±%.2f (95%% CI) p50=%.2f p95=%.2f min=%.2f max=%.2f stddev=%.2f\n",
		res.Latency.Mean, res.CI95, res.Latency.P50, res.Latency.P95,
		res.Latency.Min, res.Latency.Max, res.Latency.Stddev)
	fmt.Printf("failures=%d retries=%d abandoned=%d batches=%d\n",
		res.Failures, res.Retries, res.Abandoned, len(res.BatchMeans))
	if *perAct {
		names := make([]string, 0, len(res.PerAction))
		for name := range res.PerAction {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("per-action mean latency (ms):")
		for _, name := range names {
			s := res.PerAction[name]
			fmt.Printf("  %-14s %8.2f (n=%d)\n", name, s.Mean, s.N)
		}
	}
	return runErr
}
