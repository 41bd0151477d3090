package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// span is one call across a layer boundary, in nanoseconds since the
// run's time base. Spans carry no interaction or parent of their own:
// the closed loop keeps one interaction in flight per client, so both
// are recovered afterwards by time containment (see assign).
type span struct {
	op         string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects the spans of one boundary instance in memory.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(op string, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{op: op, start: start, end: end})
	r.mu.Unlock()
}

// take returns the recorded spans ordered by start time and empties the
// recorder, so warm-up spans can be dropped before the measured round.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// spanConn decorates a storeapi.Conn so every call across it becomes a
// span. It is inserted only in traced runs. Subscribe and Close pass
// straight through: a subscription is a long-lived push stream, not a
// call an interaction waits for.
type spanConn struct {
	inner storeapi.Conn
	rec   *recorder
}

// spanPrepConn is spanConn over a Conn that also takes part in
// two-phase commit; hiding storeapi.Preparer would turn every
// cross-shard commit behind the decorator into a conflict.
type spanPrepConn struct {
	spanConn
	prep storeapi.Preparer
}

// newSpanConn wraps inner, keeping storeapi.Preparer visible exactly
// when inner has it.
func newSpanConn(inner storeapi.Conn, rec *recorder) storeapi.Conn {
	sc := spanConn{inner: inner, rec: rec}
	if p, ok := inner.(storeapi.Preparer); ok {
		return &spanPrepConn{spanConn: sc, prep: p}
	}
	return &sc
}

func (c *spanConn) Begin(ctx context.Context) (storeapi.Txn, error) {
	start := c.rec.now()
	txn, err := c.inner.Begin(ctx)
	c.rec.add("Begin", start)
	if err != nil {
		return nil, err
	}
	st := spanTxn{inner: txn, rec: c.rec}
	if bt, ok := txn.(storeapi.BatchTxn); ok {
		return &spanBatchTxn{spanTxn: st, batch: bt}, nil
	}
	return &st, nil
}

func (c *spanConn) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer c.rec.add("AutoGet", c.rec.now())
	return c.inner.AutoGet(ctx, table, id)
}

func (c *spanConn) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	defer c.rec.add("AutoQuery", c.rec.now())
	return c.inner.AutoQuery(ctx, q)
}

func (c *spanConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	defer c.rec.add("ApplyCommitSet", c.rec.now())
	return c.inner.ApplyCommitSet(ctx, cs)
}

func (c *spanConn) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	defer c.rec.add("ApplyCommitSets", c.rec.now())
	return c.inner.ApplyCommitSets(ctx, sets)
}

func (c *spanConn) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	return c.inner.Subscribe(ctx)
}

func (c *spanConn) Close() error { return c.inner.Close() }

func (c *spanPrepConn) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	defer c.rec.add("Prepare", c.rec.now())
	return c.prep.Prepare(ctx, gid, cs)
}

func (c *spanPrepConn) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	defer c.rec.add("CommitPrepared", c.rec.now())
	return c.prep.CommitPrepared(ctx, gid)
}

func (c *spanPrepConn) AbortPrepared(ctx context.Context, gid string) error {
	defer c.rec.add("AbortPrepared", c.rec.now())
	return c.prep.AbortPrepared(ctx, gid)
}

// spanTxn decorates one transaction; every statement is a span.
type spanTxn struct {
	inner storeapi.Txn
	rec   *recorder
}

// spanBatchTxn is spanTxn over a transaction with native batching;
// hiding storeapi.BatchTxn would silently turn one round trip into one
// per statement.
type spanBatchTxn struct {
	spanTxn
	batch storeapi.BatchTxn
}

func (t *spanTxn) ID() uint64 { return t.inner.ID() }

func (t *spanTxn) Get(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer t.rec.add("Get", t.rec.now())
	return t.inner.Get(ctx, table, id)
}

func (t *spanTxn) GetForUpdate(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer t.rec.add("GetForUpdate", t.rec.now())
	return t.inner.GetForUpdate(ctx, table, id)
}

func (t *spanTxn) Put(ctx context.Context, m memento.Memento) error {
	defer t.rec.add("Put", t.rec.now())
	return t.inner.Put(ctx, m)
}

func (t *spanTxn) Insert(ctx context.Context, m memento.Memento) error {
	defer t.rec.add("Insert", t.rec.now())
	return t.inner.Insert(ctx, m)
}

func (t *spanTxn) Delete(ctx context.Context, table, id string) error {
	defer t.rec.add("Delete", t.rec.now())
	return t.inner.Delete(ctx, table, id)
}

func (t *spanTxn) Query(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	defer t.rec.add("Query", t.rec.now())
	return t.inner.Query(ctx, q)
}

func (t *spanTxn) CheckVersion(ctx context.Context, key memento.Key, version uint64) error {
	defer t.rec.add("CheckVersion", t.rec.now())
	return t.inner.CheckVersion(ctx, key, version)
}

func (t *spanTxn) CheckedPut(ctx context.Context, m memento.Memento) error {
	defer t.rec.add("CheckedPut", t.rec.now())
	return t.inner.CheckedPut(ctx, m)
}

func (t *spanTxn) CheckedDelete(ctx context.Context, key memento.Key, version uint64) error {
	defer t.rec.add("CheckedDelete", t.rec.now())
	return t.inner.CheckedDelete(ctx, key, version)
}

func (t *spanTxn) Commit(ctx context.Context) error {
	defer t.rec.add("Commit", t.rec.now())
	return t.inner.Commit(ctx)
}

func (t *spanTxn) Abort(ctx context.Context) error {
	defer t.rec.add("Abort", t.rec.now())
	return t.inner.Abort(ctx)
}

func (t *spanBatchTxn) ExecBatch(ctx context.Context, stmts []storeapi.Stmt) ([]storeapi.StmtResult, error) {
	defer t.rec.add("ExecBatch", t.rec.now())
	return t.batch.ExecBatch(ctx, stmts)
}

// assign maps each child to the index of the parent whose interval
// contains it, or -1. Both slices are ordered by start. With one
// interaction in flight the parents of one client never overlap, so the
// last parent starting at or before the child is the only candidate.
func assign(parents, children []span) []int {
	out := make([]int, len(children))
	for i, c := range children {
		p := sort.Search(len(parents), func(j int) bool { return parents[j].start > c.start }) - 1
		if p >= 0 && c.end <= parents[p].end {
			out[i] = p
		} else {
			out[i] = -1
		}
	}
	return out
}

// covered is the length of the part of parent's interval that the
// children (ordered by start) cover; overlapping children count once.
// A layer's self time is its span's duration minus this.
func covered(parent span, children []span) int64 {
	var total int64
	edge := parent.start
	for _, c := range children {
		s, e := c.start, c.end
		if s < edge {
			s = edge
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

func totalDur(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return sum
}

// durations returns span durations in the given unit (ns per unit),
// ascending.
func durations(spans []span, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / unit
	}
	sort.Float64s(out)
	return out
}
