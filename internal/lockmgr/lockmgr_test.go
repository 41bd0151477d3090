package lockmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	modes := []Mode{Shared, IntentExclusive, SharedIntentExclusive, Exclusive}
	want := map[[2]Mode]bool{
		{Shared, Shared}:                   true,
		{IntentExclusive, IntentExclusive}: true,
	}
	for _, a := range modes {
		for _, b := range modes {
			expect := want[[2]Mode{a, b}] || want[[2]Mode{b, a}]
			if got := Compatible(a, b); got != expect {
				t.Errorf("Compatible(%v, %v) = %v, want %v", a, b, got, expect)
			}
		}
	}
}

func TestJoinLattice(t *testing.T) {
	tests := []struct {
		a, b, want Mode
	}{
		{Shared, Shared, Shared},
		{Shared, IntentExclusive, SharedIntentExclusive},
		{IntentExclusive, Shared, SharedIntentExclusive},
		{Shared, Exclusive, Exclusive},
		{SharedIntentExclusive, IntentExclusive, SharedIntentExclusive},
		{SharedIntentExclusive, Exclusive, Exclusive},
		{0, Shared, Shared},
		{IntentExclusive, 0, IntentExclusive},
	}
	for _, tt := range tests {
		if got := Join(tt.a, tt.b); got != tt.want {
			t.Errorf("Join(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: Join is commutative, idempotent, and Covers(Join(a,b), a).
func TestJoinProperties(t *testing.T) {
	f := func(ai, bi uint8) bool {
		a := Mode(ai%4) + Shared
		b := Mode(bi%4) + Shared
		j := Join(a, b)
		return j == Join(b, a) && Join(a, a) == a && Covers(j, a) && Covers(j, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := New()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "r", Shared); err != nil {
		t.Fatalf("second shared lock should not block: %v", err)
	}
	if !m.Holds(1, "r", Shared) || !m.Holds(2, "r", Shared) {
		t.Error("holders not recorded")
	}
}

func TestExclusiveBlocksOthers(t *testing.T) {
	m := New(WithTimeout(50 * time.Millisecond))
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "r", Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
	m.Release(1, "r")
	if err := m.Acquire(ctx, 2, "r", Shared); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := m.Acquire(ctx, 1, "r", Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.HeldCount(1); got != 1 {
		t.Errorf("HeldCount = %d, want 1", got)
	}
	// X covers S.
	if err := m.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatalf("downgrade request should be covered: %v", err)
	}
	if !m.Holds(1, "r", Exclusive) {
		t.Error("exclusive lock lost after covered request")
	}
}

func TestUpgradeWhenSoleHolder(t *testing.T) {
	m := New()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatalf("sole-holder upgrade should be immediate: %v", err)
	}
	if !m.Holds(1, "r", Exclusive) {
		t.Error("upgrade not recorded")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := New()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "r", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 1, "r", Exclusive) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade granted while another reader holds: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Release(2, "r")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upgrade after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("upgrade never granted")
	}
	if !m.Holds(1, "r", Exclusive) {
		t.Error("upgrade not recorded")
	}
}

func TestUpgradeDeadlockResolvesByTimeout(t *testing.T) {
	m := New(WithTimeout(60 * time.Millisecond))
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "r", Shared); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, owner := range []Owner{1, 2} {
		i, owner := i, owner
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Acquire(ctx, owner, "r", Exclusive)
		}()
	}
	wg.Wait()
	timeouts := 0
	for _, err := range errs {
		if errors.Is(err, ErrTimeout) {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Errorf("expected at least one upgrade to time out, got %v", errs)
	}
}

func TestFIFOOrderingNoStarvation(t *testing.T) {
	m := New()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Writer 2 queues first, then reader 3. Reader 3 must not jump the
	// queued writer.
	got := make(chan Owner, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire(ctx, 2, "r", Exclusive); err == nil {
			got <- 2
			m.Release(2, "r")
		}
	}()
	time.Sleep(20 * time.Millisecond) // let writer 2 enqueue
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire(ctx, 3, "r", Shared); err == nil {
			got <- 3
		}
	}()
	time.Sleep(20 * time.Millisecond)
	m.Release(1, "r")
	wg.Wait()
	first := <-got
	if first != 2 {
		t.Errorf("queued writer should be granted before later reader; first = %d", first)
	}
}

func TestContextCancellation(t *testing.T) {
	m := New(WithTimeout(10 * time.Second))
	bg := context.Background()
	if err := m.Acquire(bg, 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, "r", Shared) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Acquire never returned")
	}
	// The abandoned waiter must not block later grants.
	m.Release(1, "r")
	if err := m.Acquire(bg, 3, "r", Exclusive); err != nil {
		t.Fatalf("lock leaked after abandoned waiter: %v", err)
	}
}

func TestReleaseAll(t *testing.T) {
	m := New()
	ctx := context.Background()
	for _, res := range []string{"a", "b", "c"} {
		if err := m.Acquire(ctx, 1, res, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.HeldCount(1); got != 3 {
		t.Fatalf("HeldCount = %d, want 3", got)
	}
	m.ReleaseAll(1)
	if got := m.HeldCount(1); got != 0 {
		t.Fatalf("HeldCount after ReleaseAll = %d, want 0", got)
	}
	for _, res := range []string{"a", "b", "c"} {
		if err := m.Acquire(ctx, 2, res, Exclusive); err != nil {
			t.Fatalf("resource %s still locked: %v", res, err)
		}
	}
}

func TestIntentExclusiveBlocksTableShared(t *testing.T) {
	m := New(WithTimeout(40 * time.Millisecond))
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "table", IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "table", Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("table S must wait for IX holder, got %v", err)
	}
	if err := m.Acquire(ctx, 3, "table", IntentExclusive); err != nil {
		t.Fatalf("IX-IX must be compatible: %v", err)
	}
}

func TestSIXUpgradePath(t *testing.T) {
	m := New(WithTimeout(40 * time.Millisecond))
	ctx := context.Background()
	// A transaction that queried (table S) then writes (table IX) holds SIX.
	if err := m.Acquire(ctx, 1, "table", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, "table", IntentExclusive); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, "table", SharedIntentExclusive) {
		t.Error("expected SIX after S + IX")
	}
	// SIX blocks everything from other owners.
	if err := m.Acquire(ctx, 2, "table", Shared); !errors.Is(err, ErrTimeout) {
		t.Errorf("S vs SIX should block, got %v", err)
	}
	if err := m.Acquire(ctx, 3, "table", IntentExclusive); !errors.Is(err, ErrTimeout) {
		t.Errorf("IX vs SIX should block, got %v", err)
	}
}

func TestClosedManagerRejects(t *testing.T) {
	m := New()
	m.Close()
	if err := m.Acquire(context.Background(), 1, "r", Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestInvalidMode(t *testing.T) {
	m := New()
	if err := m.Acquire(context.Background(), 1, "r", Mode(42)); err == nil {
		t.Fatal("expected error for invalid mode")
	}
}

// TestConcurrentStress exercises the manager with many owners hammering
// a few resources; correctness condition: at any instant a resource has
// either one X holder or only compatible holders, checked indirectly by
// a mutual-exclusion counter.
func TestConcurrentStress(t *testing.T) {
	m := New(WithTimeout(2 * time.Second))
	ctx := context.Background()
	const (
		owners = 8
		rounds = 200
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		inX     = make(map[string]int)
		maxSeen int
	)
	resources := []string{"a", "b"}
	for o := 1; o <= owners; o++ {
		owner := Owner(o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res := resources[i%len(resources)]
				if err := m.Acquire(ctx, owner, res, Exclusive); err != nil {
					continue
				}
				mu.Lock()
				inX[res]++
				if inX[res] > maxSeen {
					maxSeen = inX[res]
				}
				mu.Unlock()
				mu.Lock()
				inX[res]--
				mu.Unlock()
				m.Release(owner, res)
			}
		}()
	}
	wg.Wait()
	if maxSeen > 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent X holders", maxSeen)
	}
}

// TestCloseWakesWaiters: Close wakes a waiter queued behind a holder at
// once, with ErrClosed, rather than leaving it blocked until its
// lock-wait timeout.
func TestCloseWakesWaiters(t *testing.T) {
	const timeout = 10 * time.Second
	m := New(WithTimeout(timeout))
	if err := m.Acquire(context.Background(), 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(context.Background(), 2, "r", Shared) }()
	for queued := false; !queued; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		queued = m.locks["r"] != nil && len(m.locks["r"].waiters) == 1
		m.mu.Unlock()
	}
	closed := time.Now()
	m.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("woken waiter got %v, want ErrClosed", err)
		}
		if d := time.Since(closed); d > 100*time.Millisecond {
			t.Fatalf("waiter woke %v after Close, want within 100ms", d)
		}
	case <-time.After(timeout):
		t.Fatal("waiter still blocked after Close")
	}
}
