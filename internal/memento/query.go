package memento

import (
	"fmt"
	"sort"
	"strings"
)

// Predicate is one field equality: it matches a field map holding
// Field with a value Equal to Value. A missing field never matches.
// Finders are conjunctions of these, so the persistent store, its
// indexes and the transient home all evaluate the same equality.
type Predicate struct {
	Field string
	Value Value
}

// Matches evaluates the predicate against a field map.
func (p Predicate) Matches(f Fields) bool {
	v, ok := f[p.Field]
	return ok && v.Equal(p.Value)
}

// Query is a predicate query ("custom finder") against one table. All
// predicates must match (conjunction). A finder returns every matching
// row, in primary-key order.
type Query struct {
	Table string
	Where []Predicate
}

// Matches reports whether a memento from the query's table satisfies
// every predicate.
func (q Query) Matches(m Memento) bool {
	if m.Key.Table != q.Table {
		return false
	}
	for _, p := range q.Where {
		if !p.Matches(m.Fields) {
			return false
		}
	}
	return true
}

// String renders the query for logs and debugging.
func (q Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT * FROM %s", q.Table)
	for i, p := range q.Where {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "%s = %s", p.Field, p.Value.GoString())
	}
	return sb.String()
}

// Sort puts a finder's result in primary-key order, so that finder
// results are reproducible across the persistent store, the shards and
// the transient home.
func (q Query) Sort(ms []Memento) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key.ID < ms[j].Key.ID })
}

// Where constructs the predicate field = v.
func Where(field string, v Value) Predicate {
	return Predicate{Field: field, Value: v}
}
