package prof

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/obs"

	rtmetrics "runtime/metrics"
)

// TestRuntimeSampleNamesExist pins the runtime/metrics names we read to
// the toolchain: a Go release that renames one turns the corresponding
// family into silent zeros, and this test is what catches it.
func TestRuntimeSampleNamesExist(t *testing.T) {
	known := map[string]bool{}
	for _, d := range rtmetrics.All() {
		known[d.Name] = true
	}
	for _, name := range runtimeSampleNames {
		if !known[name] {
			t.Errorf("runtime/metrics no longer exports %q", name)
		}
	}
}

func TestRuntimeRegistersAndAdvances(t *testing.T) {
	reg := obs.NewRegistry()
	rt := NewRuntime(reg)

	// Generate runtime activity: allocate and force GC cycles.
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 32<<10))
	}
	_ = sink
	runtime.GC()
	runtime.GC()
	rt.Update()

	snap := reg.Snapshot()
	if snap.Counters["runtime.allocs_total"] == 0 || snap.Counters["runtime.alloc_bytes_total"] == 0 {
		t.Error("allocation counters did not advance across 8MB of allocation")
	}
	if snap.Gauges["runtime.goroutines_highwater"] < 1 {
		t.Errorf("goroutines_highwater = %d", snap.Gauges["runtime.goroutines_highwater"])
	}

	// Counters are monotonic: further updates never go backwards.
	for i := 0; i < 3; i++ {
		rt.Update()
		next := reg.Snapshot()
		for name, v := range snap.Counters {
			if next.Counters[name] < v {
				t.Fatalf("counter %q went backwards: %d -> %d", name, v, next.Counters[name])
			}
		}
		snap = next
	}
}

func TestStartRuntimeStop(t *testing.T) {
	reg := obs.NewRegistry()
	rt := StartRuntime(reg, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	rt.Stop()
	rt.Stop() // idempotent
	if reg.Snapshot().Gauges["runtime.goroutines_highwater"] == 0 {
		t.Error("background sampler never updated the gauge")
	}
}

// TestServeDebug: a daemon's debug start-up labels the process's tier
// whatever the address; an empty address starts nothing, a real one
// serves /metrics with the runtime.* families, and stop closes it.
func TestServeDebug(t *testing.T) {
	before := runtime.NumGoroutine()
	stop, err := ServeDebug("prof.test", "test-empty", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("an empty address started %d goroutines", after-before)
	}
	if tier := obs.TierOf("unprefixed"); tier != "test-empty" {
		t.Errorf("tier %q, want test-empty", tier)
	}

	// A free port: ServeDebug prints the address it bound but does not
	// return it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stop, err = ServeDebug("prof.test", "test", addr)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"runtime.goroutines_highwater", "runtime.allocs_total", "runtime.alloc_bytes_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	stop()
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("/metrics still served after stop")
	}
}
