// Command backendd runs the back-end application server of the
// split-servers configuration as a standalone process: it connects to a
// database server (cmd/dbserverd) over its low-latency path and serves
// cache-miss fetches, finder queries, single-round-trip optimistic
// commits, and the invalidation stream to edge servers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/obs/prof"
	"edgeejb/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "backendd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("backendd", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7001", "listen address for edge servers")
		db     = fs.String("db", "127.0.0.1:7000", "database server address (this shard's dbserverd in a sharded tier)")
		dbWait = fs.Duration("db-wait", 15*time.Second, "how long to keep retrying the database at boot (crash-restart recovery)")
		debug  = fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopDebug, err := prof.ServeDebug("backendd", "backend", *debug)
	if err != nil {
		return err
	}
	defer stopDebug()

	dbClient := dbwire.Dial(*db)
	defer dbClient.Close()
	if err := waitForDB(dbClient, *dbWait); err != nil {
		return fmt.Errorf("database %s unreachable after %v: %w", *db, *dbWait, err)
	}

	srv := backend.NewServer(dbClient)
	if err := srv.Start(*addr); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("backendd: serving split-servers commit logic on %s (database %s)\n", srv.Addr(), *db)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Printf("backendd: shutting down (commits applied=%d rejected=%d)\n",
		srv.CommitsApplied(), srv.CommitsRejected())
	return nil
}

// waitForDB pings the database with jittered exponential backoff until
// it answers or the budget runs out, so a back-end restarted alongside
// (or slightly before) its database comes up without operator help.
func waitForDB(c *dbwire.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	backoff := wire.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	var err error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = c.Ping(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		fmt.Fprintf(os.Stderr, "backendd: waiting for database: %v\n", err)
		time.Sleep(backoff.Delay(attempt))
	}
}
