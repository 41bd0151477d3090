package obs

import (
	"fmt"
	"testing"
)

func TestLabeledCounterChildren(t *testing.T) {
	r := NewRegistry()
	f := r.LabeledCounter("cache.hits", "bean")
	f.With("quote").Add(3)
	f.With("account").Inc()
	f.With("quote").Inc()

	snap := r.Snapshot()
	if got := snap.Counters[`cache.hits{bean=quote}`]; got != 4 {
		t.Fatalf("quote child = %d, want 4", got)
	}
	if got := snap.Counters[`cache.hits{bean=account}`]; got != 1 {
		t.Fatalf("account child = %d, want 1", got)
	}
}

func TestLabeledCounterFamilyReuse(t *testing.T) {
	r := NewRegistry()
	a := r.LabeledCounter("f", "bean")
	b := r.LabeledCounter("f", "other") // first call's key wins
	if a != b {
		t.Fatal("same base should return the same family")
	}
	if b.Key() != "bean" {
		t.Fatalf("Key() = %q, want first call's %q", b.Key(), "bean")
	}
	if b.Base() != "f" {
		t.Fatalf("Base() = %q", b.Base())
	}
	// Same (family, value) → same child counter.
	if a.With("x") != b.With("x") {
		t.Fatal("same value should return the same child")
	}
}

func TestLabeledCounterOverflow(t *testing.T) {
	r := NewRegistry()
	f := r.LabeledCounter("f", "k")
	for i := 0; i < MaxLabelValues; i++ {
		f.With(fmt.Sprintf("v%d", i)).Inc()
	}
	// These two land past the cap and must fold into the overflow child.
	f.With("extra1").Inc()
	f.With("extra2").Inc()

	snap := r.Snapshot()
	if got := snap.Counters[labelName("f", "k", LabelOverflow)]; got != 2 {
		t.Fatalf("overflow child = %d, want 2", got)
	}
	if _, ok := snap.Counters[labelName("f", "k", "extra1")]; ok {
		t.Fatal("past-cap value minted its own child")
	}
	// A value seen before the cap keeps resolving to its own child.
	f.With("v0").Inc()
	if got := r.Snapshot().Counters[labelName("f", "k", "v0")]; got != 2 {
		t.Fatalf("pre-cap child = %d, want 2", got)
	}
}

func TestLabeledCounterSanitizesValues(t *testing.T) {
	r := NewRegistry()
	f := r.LabeledCounter("f", "k")
	f.With("").Inc()
	f.With(`a{b}=c"d,e f`).Inc()
	snap := r.Snapshot()
	if got := snap.Counters[labelName("f", "k", "none")]; got != 1 {
		t.Fatalf("empty value child = %d, want 1 under %q", got, "none")
	}
	if got := snap.Counters[labelName("f", "k", "a_b__c_d_e_f")]; got != 1 {
		t.Fatalf("sanitized child = %d, want 1", got)
	}
}

// TestLabeledCounterWithExistingChildAllocatesNothing pins the cache
// hit path's cost: resolving a child that exists is a lookup, not a
// sanitising pass.
func TestLabeledCounterWithExistingChildAllocatesNothing(t *testing.T) {
	f := NewRegistry().LabeledCounter("f", "k")
	f.With("quote").Inc()
	if allocs := testing.AllocsPerRun(100, func() { f.With("quote").Inc() }); allocs != 0 {
		t.Errorf("With on an existing child allocates %.0f times, want 0", allocs)
	}
}

func TestLabeledChildrenInDiff(t *testing.T) {
	r := NewRegistry()
	f := r.LabeledCounter("f", "k")
	f.With("a").Add(5)
	before := r.Snapshot()
	f.With("a").Add(2)
	f.With("b").Inc()
	diff := r.Diff(before)
	if got := diff.Counters[labelName("f", "k", "a")]; got != 2 {
		t.Fatalf("diff a = %d, want 2", got)
	}
	if got := diff.Counters[labelName("f", "k", "b")]; got != 1 {
		t.Fatalf("diff b = %d, want 1", got)
	}
}

func TestSplitLabel(t *testing.T) {
	cases := []struct {
		name             string
		base, key, value string
		ok               bool
	}{
		{"a{k=v}", "a", "k", "v", true},
		{"slicache.hits{bean=quote}", "slicache.hits", "bean", "quote", true},
		{"plain", "plain", "", "", false},
		{"{k=v}", "{k=v}", "", "", false}, // no base
		{"a{kv}", "a{kv}", "", "", false}, // no '='
		{"a{=v}", "a{=v}", "", "", false}, // empty key
		{"a{k=v", "a{k=v", "", "", false}, // unterminated
		{"a{k=}", "a", "k", "", true},     // empty value parses
		{"a{k=v=w}", "a", "k", "v=w", true} /* first '=' splits */}
	for _, c := range cases {
		base, key, value, ok := SplitLabel(c.name)
		if base != c.base || key != c.key || value != c.value || ok != c.ok {
			t.Errorf("SplitLabel(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)",
				c.name, base, key, value, ok, c.base, c.key, c.value, c.ok)
		}
	}
	// Round trip through labelName.
	base, key, value, ok := SplitLabel(labelName("m.x", "bean", "quote"))
	if !ok || base != "m.x" || key != "bean" || value != "quote" {
		t.Fatalf("round trip = (%q, %q, %q, %v)", base, key, value, ok)
	}
}
