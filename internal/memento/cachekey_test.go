package memento

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fmtString is Query.String as it was first rendered, through fmt: the
// reference the append-built rendering must match byte for byte.
func fmtString(q Query) string {
	goString := func(v Value) string {
		switch v.Kind {
		case KindString:
			return strconv.Quote(v.Str)
		case KindInt:
			return strconv.FormatInt(v.Int, 10)
		case KindFloat:
			return strconv.FormatFloat(v.F, 'g', -1, 64)
		case KindBool:
			return strconv.FormatBool(v.Bool)
		default:
			return "<zero>"
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT * FROM %s", q.Table)
	for i, p := range q.Where {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "%s = %s", p.Field, goString(p.Value))
	}
	return sb.String()
}

// TestCacheKeyMatchesFmt renders random queries over every value kind,
// the floats and strings that render unusually among them, and checks
// CacheKey against the fmt rendering of the normalized query.
func TestCacheKeyMatchesFmt(t *testing.T) {
	odd := []Value{
		Float(math.Copysign(0, -1)), Float(0), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e21), Float(1e-7), Float(-2.5),
		String(""), String("a b"), String("k = v"), String(`quote "x" \ tab	é`), String("\x00\xff"),
		Int(math.MinInt64), Int(math.MaxInt64), Int(0),
		Bool(true), Bool(false), {},
	}
	rng := rand.New(rand.NewSource(53))
	value := func() Value {
		if rng.Intn(2) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return randomValue(rng)
	}
	for i := 0; i < 2000; i++ {
		q := Query{Table: randomString(rng) + "t"}
		for j, n := 0, rng.Intn(4); j < n; j++ {
			field := []string{"a", "b", "acct id", "x=y"}[rng.Intn(4)]
			q.Where = append(q.Where, Where(field, value()))
		}
		if got, want := q.CacheKey(), fmtString(q.Normalize()); got != want {
			t.Fatalf("CacheKey of %#v = %q, fmt renders %q", q, got, want)
		}
		if got, want := q.String(), fmtString(q); got != want {
			t.Fatalf("String of %#v = %q, fmt renders %q", q, got, want)
		}
	}
}

// TestCacheKeyAllocs: a one-predicate finder's key is one buffer and
// the string made from it.
func TestCacheKeyAllocs(t *testing.T) {
	q := Query{Table: "holding", Where: []Predicate{Where("account", String("uid-17"))}}
	if n := testing.AllocsPerRun(100, func() { cacheKeySink = q.CacheKey() }); n > 2 {
		t.Errorf("CacheKey allocates %v times, want <= 2", n)
	}
}

var cacheKeySink string

func BenchmarkCacheKey(b *testing.B) {
	q := Query{Table: "holding", Where: []Predicate{Where("account", String("uid-17"))}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cacheKeySink = q.CacheKey()
	}
}
