// Command delayproxy runs the delay proxy as a standalone process: it
// forwards TCP connections to a target while injecting a configurable
// one-way delay, and reports forwarded byte counts — the measurement
// instrument of §4.1 ("the proxy reads the incoming data, interposes a
// specified amount of delay, and only then writes the incoming data to
// the original destination").
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgeejb/internal/latency"
	"edgeejb/internal/obs/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "delayproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("delayproxy", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:7200", "listen address")
		target     = fs.String("target", "127.0.0.1:7000", "forward target address")
		delay      = fs.Duration("delay", 10*time.Millisecond, "one-way delay to inject")
		statsEvery = fs.Duration("stats", 10*time.Second, "print byte counters at this interval (0 = off)")
		debug      = fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopDebug, err := prof.ServeDebug("delayproxy", "proxy", *debug)
	if err != nil {
		return err
	}
	defer stopDebug()

	p := latency.NewProxy(*target, *delay)
	if err := p.Start(*listen); err != nil {
		return err
	}
	defer p.Close()
	fmt.Printf("delayproxy: %s -> %s with %v one-way delay\n", p.Addr(), *target, *delay)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				c := p.Counter()
				fmt.Printf("delayproxy: conns=%d toTarget=%dB fromTarget=%dB\n",
					c.Conns(), c.ToTarget(), c.FromTarget())
			case <-stop:
				fmt.Println("delayproxy: shutting down")
				return nil
			}
		}
	}
	<-stop
	fmt.Println("delayproxy: shutting down")
	return nil
}
