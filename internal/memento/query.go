package memento

import "sort"

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
func (q Query) String() string { return string(q.appendTo(make([]byte, 0, q.renderedLen()))) }

// appendTo appends the query as String renders it.
func (q Query) appendTo(b []byte) []byte {
	b = append(b, "SELECT * FROM "...)
	b = append(b, q.Table...)
	for i, p := range q.Where {
		if i == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = append(b, p.Field...)
		b = append(b, " = "...)
		b = p.Value.appendGo(b)
	}
	return b
}

// renderedLen bounds the length String renders, but for strings that
// need escaping.
func (q Query) renderedLen() int {
	n := len("SELECT * FROM ") + len(q.Table)
	for _, p := range q.Where {
		n += len(" WHERE ") + len(p.Field) + len(" = ") + len(p.Value.Str) + 24
	}
	return n
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
