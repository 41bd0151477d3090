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
// predicates must match (conjunction). A zero Limit means unlimited.
// OrderBy, when set, sorts results by that field (ties and missing
// fields fall back to primary-key order); otherwise results are in
// primary-key order.
type Query struct {
	Table   string
	Where   []Predicate
	OrderBy string
	Desc    bool
	Limit   int
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
	if q.OrderBy != "" {
		fmt.Fprintf(&sb, " ORDER BY %s", q.OrderBy)
		if q.Desc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// Sort orders mementos according to the query: by OrderBy field when
// set (missing fields sort first ascending), breaking ties — and
// ordering entirely when OrderBy is empty — by primary key. Sorting is
// deterministic so that finder results are reproducible across the
// persistent store and the transient home.
func (q Query) Sort(ms []Memento) {
	sort.Slice(ms, func(i, j int) bool {
		if q.OrderBy != "" {
			vi, okI := ms[i].Fields[q.OrderBy]
			vj, okJ := ms[j].Fields[q.OrderBy]
			var c int
			switch {
			case okI && okJ:
				c = vi.Compare(vj)
			case okI:
				c = 1
			case okJ:
				c = -1
			}
			if c != 0 {
				if q.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return ms[i].Key.ID < ms[j].Key.ID
	})
}

// Cap truncates ms to the query's limit, if any.
func (q Query) Cap(ms []Memento) []Memento {
	if q.Limit > 0 && len(ms) > q.Limit {
		return ms[:q.Limit]
	}
	return ms
}

// Where constructs the predicate field = v.
func Where(field string, v Value) Predicate {
	return Predicate{Field: field, Value: v}
}
