// Command dbserverd runs the database-server tier as a standalone
// process: the persistent datastore populated with the Trade database,
// served over the dbwire protocol. It is the "database server" machine
// of the paper's four-machine test configuration; point edge servers
// (cmd/edged), back-end servers (cmd/backendd), or the delay proxy
// (cmd/delayproxy) at its address.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/obs/prof"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbserverd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbserverd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7000", "listen address")
		users       = fs.Int("users", 50, "registered users to populate")
		symbols     = fs.Int("symbols", 100, "quoted securities to populate")
		holdings    = fs.Int("holdings", 4, "initial holdings per user")
		seed        = fs.Int64("seed", 42, "population random seed")
		lockTimeout = fs.Duration("lock-timeout", 5*time.Second, "lock-wait timeout (deadlock resolution)")
		statsEvery  = fs.Duration("stats", 0, "print store stats at this interval (0 = off)")
		snapshot    = fs.String("snapshot", "", "snapshot file: restored at boot if present, written on shutdown")
		snapEvery   = fs.Duration("snapshot-every", 0, "also write the snapshot at this interval, bounding data lost to a crash (0 = shutdown only)")
		debug       = fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
		shards      = fs.Int("shards", 1, "total database shards in the deployment; this process populates only the rows shard -shard owns")
		shardIdx    = fs.Int("shard", 0, "this process's shard index in [0, -shards)")
		prepareTTL  = fs.Duration("prepare-ttl", 10*time.Second, "presumed-abort timeout for prepared (in-doubt) cross-shard transactions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	if *shardIdx < 0 || *shardIdx >= *shards {
		return fmt.Errorf("-shard %d out of range [0, %d)", *shardIdx, *shards)
	}

	stopDebug, err := prof.ServeDebug("dbserverd", "db", *debug)
	if err != nil {
		return err
	}
	defer stopDebug()

	store := sqlstore.New(
		sqlstore.WithLockTimeout(*lockTimeout),
		sqlstore.WithPrepareTTL(*prepareTTL),
	)
	defer store.Close()
	restored := false
	if *snapshot != "" {
		if _, statErr := os.Stat(*snapshot); statErr == nil {
			if err := store.RestoreFile(*snapshot); err != nil {
				return fmt.Errorf("restore %s: %w", *snapshot, err)
			}
			restored = true
			fmt.Printf("dbserverd: restored snapshot %s\n", *snapshot)
		}
	}
	if !restored {
		cfg := trade.PopulateConfig{
			Seed:            *seed,
			Users:           *users,
			Symbols:         *symbols,
			HoldingsPerUser: *holdings,
		}
		owned := trade.PopulateShard(store, cfg, *shards, *shardIdx)
		fmt.Printf("dbserverd: shard %d/%d owns %d of the population rows\n", *shardIdx, *shards, owned)
	}
	saveSnapshot := func() {
		if *snapshot == "" {
			return
		}
		if err := store.DumpFile(*snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "dbserverd: snapshot: %v\n", err)
			return
		}
		fmt.Printf("dbserverd: wrote snapshot %s\n", *snapshot)
	}

	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start(*addr); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("dbserverd: serving Trade database shard %d/%d (%d users, %d symbols) on %s\n",
		*shardIdx, *shards, *users, *symbols, srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// Optional tickers stay nil channels (never ready) when disabled.
	var statsC, snapC <-chan time.Time
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		statsC = ticker.C
	}
	if *snapEvery > 0 {
		if *snapshot == "" {
			return fmt.Errorf("-snapshot-every requires -snapshot")
		}
		ticker := time.NewTicker(*snapEvery)
		defer ticker.Stop()
		snapC = ticker.C
	}
	for {
		select {
		case <-statsC:
			st := store.Stats()
			fmt.Printf("dbserverd: commits=%d aborts=%d gets=%d puts=%d queries=%d optOK=%d optFail=%d rows=%d\n",
				st.Commits, st.Aborts, st.Gets, st.Puts, st.Queries,
				st.OptimisticOK, st.OptimisticFail, st.RowsLive)
		case <-snapC:
			saveSnapshot()
		case <-stop:
			fmt.Println("dbserverd: shutting down")
			saveSnapshot()
			return nil
		}
	}
}
