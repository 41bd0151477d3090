// Command edged runs one application server as a standalone process: an
// edge server (ES/RDB or ES/RBES) or the remote application server of
// Clients/RAS, depending on where you deploy it and what you point it
// at. The -algo flag selects the data-access algorithm:
//
//	jdbc        hand-optimized direct access (pessimistic)
//	bmp         vanilla EJB entity beans (pessimistic, uncached)
//	sli-db      cached EJBs, combined-servers: commit per memento image
//	            straight to the database (-target is a dbserverd)
//	sli-backend cached EJBs, split-servers: whole-set commits through a
//	            back-end server (-target is a backendd)
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"edgeejb/internal/appserver"
	"edgeejb/internal/deploy"
	"edgeejb/internal/obs/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edged:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("edged", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7100", "listen address for web clients (appserver wire protocol)")
		httpAddr = fs.String("http", "", "also serve plain HTTP on this address (GET /trade/{action})")
		target   = fs.String("target", "127.0.0.1:7000", "database or back-end server address; a comma-separated list (sli-backend only) routes by key across that many shards, ordered by shard index")
		algo     = fs.String("algo", "sli-backend", "data access: jdbc | bmp | sli-db | sli-backend")
		debug    = fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := splitTargets(*target)

	stopDebug, err := prof.ServeDebug("edged", "edge", *debug)
	if err != nil {
		return err
	}
	defer stopDebug()

	edge, err := deploy.StartEdge(context.Background(), *addr, targets, deploy.Algo(*algo), deploy.Shipped())
	if err != nil {
		return err
	}
	defer edge.Close()
	srv, mgr := edge.Server, edge.Manager
	fmt.Printf("edged: serving Trade (%s) on %s against %v\n", *algo, srv.Addr(), targets)

	if *httpAddr != "" {
		httpSrv := &http.Server{Addr: *httpAddr, Handler: appserver.NewHTTPGateway(srv)}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "edged: http:", err)
			}
		}()
		defer httpSrv.Close()
		fmt.Printf("edged: HTTP gateway on %s (try /trade/home?user=uid-0)\n", *httpAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Printf("edged: shutting down (requests=%d failures=%d)\n", srv.Requests(), srv.Failures())
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("edged: cache hits=%d misses=%d commits=%d conflicts=%d invalidations=%d\n",
			st.Cache.Hits, st.Cache.Misses, st.Commits, st.Conflicts, st.Cache.Invalidations)
	}
	return nil
}

// splitTargets parses the -target value: a comma-separated address list
// ordered by shard index, with blanks trimmed and empties dropped.
func splitTargets(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
