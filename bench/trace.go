package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// recorders lists every boundary recorder of a traced topology.
func (t *topology) recorders() []*recorder {
	var out []*recorder
	for _, e := range t.edges {
		out = append(out, e.spans)
	}
	if t.backendSpans != nil {
		out = append(out, t.backendSpans)
	}
	return append(out, t.dbSpans)
}

// traceRecord is one line of the written trace.
type traceRecord struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: a root, or not attributable (several clients in flight)
	Ixn      int    `json:"ixn"`    // -1 when not attributable
	Boundary string `json:"boundary"`
	Op       string `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// traceReport is what one traced round says about each layer. Times are
// milliseconds per interaction unless named otherwise.
type traceReport struct {
	ixn                int
	ixnMs, p50Ms       float64
	edgeSelfMs         float64
	edgeCalls          float64
	edgeCallP50Ms      float64
	edgeOverheadMs     float64
	backendDBCalls     float64
	backendLanOverhead float64
	dbCalls, dbBusyMs  float64
	dbCallP50Us        float64
	// orphans counts edge spans no root contains; minSelfNs is the
	// smallest per-interaction edge self time. Conservation holds when
	// orphans is 0 and minSelfNs >= 0.
	orphans   int
	minSelfNs int64
	records   []traceRecord
}

// analyze turns the recorded spans of one traced round into per-layer
// figures. Each edge has its own recorder and its own client, so edge
// spans attribute to interactions exactly, by time containment. Spans
// of the shared back-end and database tiers attribute exactly only with
// one client; with two they are reported as totals.
func analyze(t *topology, p *phase) *traceReport {
	r := &traceReport{}
	twoD := 2 * t.w.delay.Nanoseconds()
	// emit appends spans to the written trace; parentID maps a span's
	// index to its parent's record ID, or -1. Record IDs are indexes.
	emit := func(boundary string, spans []span, parentID func(int) int) {
		for k, s := range spans {
			parent, ixn := parentID(k), -1
			if parent >= 0 {
				ixn = r.records[parent].Ixn
			}
			id := len(r.records)
			if boundary == "client" {
				ixn = id
			}
			r.records = append(r.records, traceRecord{
				ID: id, Parent: parent, Ixn: ixn, Boundary: boundary,
				Op: s.op, StartNs: s.start, EndNs: s.end,
			})
		}
	}
	contained := func(parents, spans []span, firstParentID int) func(int) int {
		if len(t.edges) > 1 {
			return func(int) int { return -1 }
		}
		owner := assign(parents, spans)
		return func(k int) int {
			if owner[k] < 0 {
				return -1
			}
			return firstParentID + owner[k]
		}
	}

	var rootNs, selfNs int64
	var rootMs []float64
	var edgeSpans []span // ordered by start when there is one edge
	edgeFirstID := 0
	for i, e := range t.edges {
		roots, spans := p.roots[i], e.spans.take()
		owner := assign(roots, spans)
		kids := make([][]span, len(roots))
		for k, o := range owner {
			if o < 0 {
				r.orphans++
				continue
			}
			kids[o] = append(kids[o], spans[k])
		}
		for j, root := range roots {
			self := root.dur() - covered(root, kids[j])
			if t.w.arch == archRAS {
				self -= twoD
			}
			if len(rootMs) == 0 || self < r.minSelfNs {
				r.minSelfNs = self
			}
			rootNs += root.dur()
			selfNs += self
			rootMs = append(rootMs, float64(root.dur())/1e6)
		}
		rootFirstID := len(r.records)
		emit("client", roots, func(int) int { return -1 })
		edgeFirstID = len(r.records)
		emit(fmt.Sprintf("edge%d", i), spans, func(k int) int {
			if owner[k] < 0 {
				return -1
			}
			return rootFirstID + owner[k]
		})
		edgeSpans = append(edgeSpans, spans...)
	}
	r.ixn = len(rootMs)
	n := float64(r.ixn)
	sort.Float64s(rootMs)
	r.p50Ms = percentile(rootMs, 0.5)
	r.ixnMs = ratio(float64(rootNs)/1e6, n)
	r.edgeSelfMs = ratio(float64(selfNs)/1e6, n)
	r.edgeCalls = ratio(float64(len(edgeSpans)), n)
	r.edgeCallP50Ms = percentile(durations(edgeSpans, 1e6), 0.5)

	dbSpans := t.dbSpans.take()
	dbNs := totalDur(dbSpans)
	innerNs := dbNs // what lies directly inside the edge boundary
	if t.backendSpans != nil {
		backendSpans := t.backendSpans.take()
		backendNs := totalDur(backendSpans)
		innerNs = backendNs
		backendFirstID := len(r.records)
		emit("backend", backendSpans, contained(edgeSpans, backendSpans, edgeFirstID))
		emit("db", dbSpans, contained(backendSpans, dbSpans, backendFirstID))
		r.backendDBCalls = ratio(float64(len(dbSpans)), n)
		r.backendLanOverhead = ratio(float64(backendNs-dbNs)/1e6, n)
	} else {
		emit("db", dbSpans, contained(edgeSpans, dbSpans, edgeFirstID))
	}
	overheadNs := totalDur(edgeSpans) - innerNs
	if t.w.arch != archRAS {
		overheadNs -= twoD * int64(len(edgeSpans))
	}
	r.edgeOverheadMs = ratio(float64(overheadNs)/1e6, n)
	if t.backendSpans == nil {
		// With no back-end server the edge's own hop is the hop into the
		// database, so the two overheads are one measurement.
		r.backendLanOverhead = r.edgeOverheadMs
	}
	r.dbCalls = ratio(float64(len(dbSpans)), n)
	r.dbBusyMs = ratio(float64(dbNs)/1e6, n)
	r.dbCallP50Us = percentile(durations(dbSpans, 1e3), 0.5)
	return r
}

// writeTrace writes the spans out, one JSON object per line.
func writeTrace(path string, records []traceRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
