package latency

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPlan configures fault injection on a proxied path. All faults
// are probabilistic and seeded, so a schedule is reproducible; the
// zero value injects nothing. A plan applies to one proxy — each path
// of a topology carries its own plan.
type FaultPlan struct {
	// Seed makes the fault schedule reproducible.
	Seed int64

	// ResetRate is the per-connection probability that the connection
	// is doomed: after a uniformly random number of forwarded bytes in
	// [1, ResetAfterMax] it is reset abruptly (RST, not FIN). When the
	// cut lands mid-chunk the peer sees a partial frame first — the
	// truncation case protocols must survive.
	ResetRate float64
	// ResetAfterMax bounds the doomed connection's byte budget
	// (default 16384).
	ResetAfterMax int

	// StallRate is the per-chunk probability of an injected stall of
	// StallFor before the chunk is delivered. Stalls model a peer that
	// stops reading or a path that loses and retransmits; they are how
	// context deadlines on in-flight calls get exercised.
	StallRate float64
	// StallFor is the duration of each injected stall (default 20ms).
	StallFor time.Duration

	// TruncateRate is the per-chunk probability that the chunk is cut
	// at a random byte boundary — delivering a partial frame — and the
	// connection reset immediately after.
	TruncateRate float64
}

// Active reports whether the plan injects any fault at all.
func (p FaultPlan) Active() bool {
	return p.ResetRate > 0 || p.StallRate > 0 || p.TruncateRate > 0
}

// FaultStats counts the faults a proxy has injected.
type FaultStats struct {
	// ConnResets counts abruptly reset connections (doomed-budget and
	// post-truncation resets).
	ConnResets uint64
	// Truncations counts chunks delivered partially before a reset.
	Truncations uint64
	// Stalls counts injected per-chunk stalls.
	Stalls uint64
}

// injector is the runtime state behind one SetFaults call.
type injector struct {
	plan FaultPlan

	mu  sync.Mutex
	rng *rand.Rand

	connResets  atomic.Uint64
	truncations atomic.Uint64
	stalls      atomic.Uint64
}

func newInjector(plan FaultPlan) *injector {
	if plan.ResetAfterMax <= 0 {
		plan.ResetAfterMax = 16 * 1024
	}
	if plan.StallFor <= 0 {
		plan.StallFor = 20 * time.Millisecond
	}
	return &injector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}
}

func (f *injector) stats() FaultStats {
	return FaultStats{
		ConnResets:  f.connResets.Load(),
		Truncations: f.truncations.Load(),
		Stalls:      f.stalls.Load(),
	}
}

func (f *injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	v := f.rng.Float64()
	f.mu.Unlock()
	return v < p
}

// intn returns a uniform int in [0, n).
func (f *injector) intn(n int) int {
	f.mu.Lock()
	v := f.rng.Intn(n)
	f.mu.Unlock()
	return v
}

// connFaults is the per-connection-pair fault state: the shared doomed
// byte budget and the abrupt closer for both legs.
type connFaults struct {
	inj *injector
	// remaining is the doomed byte budget; negative means the
	// connection is not doomed.
	remaining atomic.Int64
	doomed    bool
	reset     sync.Once
	client    net.Conn
	target    net.Conn
}

func newConnFaults(inj *injector, client, target net.Conn) *connFaults {
	cf := &connFaults{inj: inj, client: client, target: target}
	if inj.roll(inj.plan.ResetRate) {
		cf.doomed = true
		cf.remaining.Store(int64(1 + inj.intn(inj.plan.ResetAfterMax)))
	} else {
		cf.remaining.Store(-1)
	}
	return cf
}

// abort resets both legs of the proxied connection abruptly: linger 0
// turns the close into a TCP RST, so peers observe "connection reset"
// mid-operation rather than a clean EOF.
func (cf *connFaults) abort() {
	cf.reset.Do(func() {
		cf.inj.connResets.Add(1)
		for _, c := range []net.Conn{cf.client, cf.target} {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			_ = c.Close()
		}
	})
}

// admit decides the fate of data about to be written: it blocks through
// an injected stall, then returns how many of the n bytes may be
// delivered and whether the connection must be reset afterwards. done
// interrupts the stall (proxy shutdown).
func (cf *connFaults) admit(n int, done <-chan struct{}) (allowed int, kill bool) {
	f := cf.inj
	if f.roll(f.plan.StallRate) {
		f.stalls.Add(1)
		if !sleepInterruptible(f.plan.StallFor, done) {
			return 0, true
		}
	}
	if cf.doomed {
		left := cf.remaining.Add(int64(-n))
		if left < 0 {
			allowed = n + int(left)
			if allowed < 0 {
				allowed = 0
			}
			if allowed > 0 && allowed < n {
				f.truncations.Add(1)
			}
			return allowed, true
		}
	}
	if n > 1 && f.roll(f.plan.TruncateRate) {
		f.truncations.Add(1)
		return f.intn(n-1) + 1, true
	}
	return n, false
}

// faultHolder lazily binds a proxied connection pair to the proxy's
// CURRENT injector. Long-lived connections (the wire client pools them)
// predate most SetFaults calls, so the binding cannot happen at accept
// time: each delivered chunk re-checks the proxy's injector and rebinds
// when a new plan has been installed (or detaches when cleared).
type faultHolder struct {
	p              *Proxy
	client, target net.Conn

	mu sync.Mutex
	cf *connFaults
}

// current returns the connection's fault state under the proxy's
// current plan, or nil when injection is off.
func (h *faultHolder) current() *connFaults {
	inj := h.p.faults.Load()
	if inj == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cf == nil || h.cf.inj != inj {
		h.cf = newConnFaults(inj, h.client, h.target)
	}
	return h.cf
}

func sleepInterruptible(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}
