package sqlstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/lockmgr"
	"edgeejb/internal/memento"
)

// Sentinel errors. ErrConflict and ErrNotFound are part of the public
// contract of every tier above the store: resource managers translate
// them into transaction aborts and entity-not-found conditions.
var (
	// ErrNotFound reports that no row exists for the requested key.
	ErrNotFound = errors.New("sqlstore: row not found")
	// ErrExists reports an insert of a key that already has a row.
	ErrExists = errors.New("sqlstore: row already exists")
	// ErrConflict reports an optimistic validation failure: the row
	// changed since the transaction read it.
	ErrConflict = errors.New("sqlstore: version conflict")
	// ErrTxDone reports use of a transaction after Commit or Abort.
	ErrTxDone = errors.New("sqlstore: transaction already finished")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("sqlstore: store closed")
)

// Notice announces a committed transaction's mutations. Edge caches
// subscribe to notices and invalidate the written entries. A stream
// carries its store's notices in commit order.
type Notice struct {
	// Seq is the number the commit took from its store's commit counter:
	// the version of every row After names. It rises strictly along one
	// store's stream.
	Seq uint64
	// Writes names every row the transaction created, updated or removed,
	// once each and in key order, with what the write set — a created
	// row's whole image, an updated row's changed cells (an empty map if
	// none changed) — or its Removed flag, so a subscriber can test
	// whether a cached predicate query's result set gained a row — not
	// just whether a known key changed version. Every subscriber is sent
	// the same descriptors. Subscribers must treat the descriptors (and their
	// field maps) as read-only; they are shared across subscribers.
	Writes []memento.WriteDesc
	// CommittedAt is when the writes were installed, stamped by the
	// store. Edges use it to measure invalidation push latency and the
	// staleness window each notice closes.
	CommittedAt time.Time
	// OriginTrace is the trace ID the committing transaction's Begin
	// context carried (zero when the commit was untraced), so an edge can
	// attribute an invalidation to the interaction that caused it.
	OriginTrace uint64
}

type originKey struct{}

// OriginContext returns ctx carrying an edge cache's origin, which Begin
// and Subscribe read: no subscriber is sent the notice of a commit made
// under its own origin, as that edge refreshed its cache from the
// commit's after-images. Zero is no origin and returns ctx unchanged.
func OriginContext(ctx context.Context, origin uint64) context.Context {
	if origin == 0 {
		return ctx
	}
	return context.WithValue(ctx, originKey{}, origin)
}

// OriginOf extracts the context's origin (zero if none).
func OriginOf(ctx context.Context) uint64 {
	origin, _ := ctx.Value(originKey{}).(uint64)
	return origin
}

// subscriber is one notice stream and the origin it never hears from.
type subscriber struct {
	ch     chan Notice
	origin uint64
}

// Stats counts store activity; all fields are monotonically increasing.
type Stats struct {
	Begins         uint64
	Commits        uint64
	Aborts         uint64
	Gets           uint64
	Puts           uint64
	Inserts        uint64
	Deletes        uint64
	Queries        uint64
	OptimisticOK   uint64
	OptimisticFail uint64
	NoticesSent    uint64
	VersionChecks  uint64
	LockTimeouts   uint64
	IndexProbes    uint64
	TableScans     uint64
	RowsLive       uint64 // gauge, not a counter
	TablesLive     uint64 // gauge, not a counter
}

// Store is the persistent datastore. It is safe for concurrent use.
type Store struct {
	lm *lockmgr.Manager

	mu     sync.RWMutex
	tables map[string]*table
	closed bool
	// seq is the commit counter: the number of the last commit that
	// wrote, and so the highest row version. inc is the incarnation, 0
	// for a fresh store and one more than its snapshot's for a restored
	// one (snapshot.go). Guarded by mu.
	seq uint64
	inc uint64

	nextTx atomic.Uint64

	subMu   sync.Mutex
	subs    map[int]subscriber
	nextSub int

	// Two-phase-commit participant state: transactions validated under
	// Prepare and held (locks included) until the coordinator decides or
	// the presumed-abort TTL expires. See prepare.go.
	prepMu     sync.Mutex
	prepared   map[string]*preparedTx
	prepareTTL time.Duration

	// commitService is the modeled per-commit-set validation service
	// time (see WithCommitServiceTime); serviceMu serializes the modeled
	// commit processor.
	commitService time.Duration
	serviceMu     sync.Mutex

	stats struct {
		begins, commits, aborts               atomic.Uint64
		gets, puts, inserts, deletes, queries atomic.Uint64
		optOK, optFail, notices, vchecks      atomic.Uint64
		lockTimeouts                          atomic.Uint64
		indexProbes, tableScans               atomic.Uint64
	}
}

// Option configures a Store.
type Option interface {
	apply(*config)
}

type config struct {
	lockTimeout   time.Duration
	prepareTTL    time.Duration
	commitService time.Duration
}

type lockTimeoutOption time.Duration

func (o lockTimeoutOption) apply(c *config) { c.lockTimeout = time.Duration(o) }

// WithLockTimeout sets the lock-wait timeout used for deadlock
// resolution. The default is one second.
func WithLockTimeout(d time.Duration) Option { return lockTimeoutOption(d) }

// New returns an empty store.
func New(opts ...Option) *Store {
	cfg := config{lockTimeout: time.Second, prepareTTL: 10 * time.Second}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return &Store{
		lm:            lockmgr.New(lockmgr.WithTimeout(cfg.lockTimeout)),
		tables:        make(map[string]*table),
		subs:          make(map[int]subscriber),
		prepareTTL:    cfg.prepareTTL,
		commitService: cfg.commitService,
	}
}

// Close shuts the store down: future operations fail and subscribers are
// drained. Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.abortAllPrepared()
	s.lm.Close()
	s.subMu.Lock()
	for id, sub := range s.subs {
		close(sub.ch)
		delete(s.subs, id)
	}
	s.subMu.Unlock()
}

// Subscribe registers for commit notices. The returned channel receives
// a Notice for every committed mutation not made under origin (see
// OriginContext; zero hears every commit) until cancel is called or the
// store closes; the channel is closed on either event. Slow subscribers
// never block commits, and never silently miss a notice either: a
// subscriber whose buffer is full when a notice is due is dropped and
// its channel closed, exactly as if its stream had been lost. Commit
// validation re-proves the rows a transaction read but not a finder's
// predicate, so a missed notice could leave a cached finder result
// missing a new row; a closed channel makes the subscriber flush and
// resubscribe instead.
func (s *Store) Subscribe(buffer int, origin uint64) (<-chan Notice, func()) {
	if buffer < 1 {
		buffer = 64
	}
	ch := make(chan Notice, buffer)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = subscriber{ch: ch, origin: origin}
	s.subMu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.subMu.Lock()
			if sub, ok := s.subs[id]; ok {
				delete(s.subs, id)
				close(sub.ch)
			}
			s.subMu.Unlock()
		})
	}
	return ch, cancel
}

// broadcast hands a commit's notice to every subscriber but the
// committing origin's. applyWrites calls it inside the commit's
// critical section, so every stream carries notices in commit order. A
// subscriber with no room for the notice is dropped and its channel
// closed (see Subscribe).
func (s *Store) broadcast(n Notice, origin uint64) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for id, sub := range s.subs {
		if origin != 0 && sub.origin == origin {
			continue
		}
		select {
		case sub.ch <- n:
			s.stats.notices.Add(1)
		default:
			delete(s.subs, id)
			close(sub.ch)
		}
	}
}

// Stats returns a snapshot of the store's activity counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	var rows uint64
	for _, t := range s.tables {
		rows += uint64(len(t.rows))
	}
	ntables := uint64(len(s.tables))
	s.mu.RUnlock()
	return Stats{
		Begins:         s.stats.begins.Load(),
		Commits:        s.stats.commits.Load(),
		Aborts:         s.stats.aborts.Load(),
		Gets:           s.stats.gets.Load(),
		Puts:           s.stats.puts.Load(),
		Inserts:        s.stats.inserts.Load(),
		Deletes:        s.stats.deletes.Load(),
		Queries:        s.stats.queries.Load(),
		OptimisticOK:   s.stats.optOK.Load(),
		OptimisticFail: s.stats.optFail.Load(),
		NoticesSent:    s.stats.notices.Load(),
		VersionChecks:  s.stats.vchecks.Load(),
		LockTimeouts:   s.stats.lockTimeouts.Load(),
		IndexProbes:    s.stats.indexProbes.Load(),
		TableScans:     s.stats.tableScans.Load(),
		RowsLive:       rows,
		TablesLive:     ntables,
	}
}

// Get reads key's committed row, as a memento the caller owns, and
// takes no lock: the cache runtime's autocommit read (§2.3) needs the
// committed rows of one instant, and a transaction still in flight,
// prepared ones included, installs nothing until it commits.
func (s *Store) Get(key memento.Key) (memento.Memento, error) {
	if s.isClosed() {
		return memento.Memento{}, ErrClosed
	}
	s.stats.gets.Add(1)
	return s.readRow(key)
}

// Query is Get for a predicate query: the committed rows of q's table
// that match it at one instant, in primary-key order.
func (s *Store) Query(q memento.Query) ([]memento.Memento, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.stats.queries.Add(1)
	return s.scanTable(q), nil
}

// readRow returns the committed row for key as a memento the caller
// owns, or ErrNotFound.
func (s *Store) readRow(key memento.Key) (memento.Memento, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.tables[key.Table]; t != nil {
		if r, ok := t.rows[key.ID]; ok {
			return t.memento(key.Table, key.ID, r), nil
		}
	}
	return memento.Memento{}, fmt.Errorf("%w: %s", ErrNotFound, key)
}

// writer returns the commit that wrote key's committed row, if there
// is one.
func (s *Store) writer(key memento.Key) (commit, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.tables[key.Table]; t != nil {
		if r, ok := t.rows[key.ID]; ok {
			return *r.by, true
		}
	}
	return commit{}, false
}

// rowState reports whether key has a committed row, its version, and
// whether it satisfies every predicate of where, without building the
// row's field map.
func (s *Store) rowState(key memento.Key, where []memento.Predicate) (version uint64, exists, matches bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[key.Table]
	if t == nil {
		return 0, false, false
	}
	r, ok := t.rows[key.ID]
	if !ok {
		return 0, false, false
	}
	var buf [4]uint32
	cols, known := t.cols.Where(where, buf[:0])
	return r.by.seq, true, known && r.cells.Matches(where, cols)
}

// scanTable returns every committed row of a table matching q, in
// primary-key order. When a predicate's field is indexed, the planner
// probes the index and re-checks every predicate on the candidates;
// otherwise it scans the whole table.
func (s *Store) scanTable(q memento.Query) []memento.Memento {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[q.Table]
	if t == nil {
		return nil
	}
	ids, indexed := t.plan(q)
	if indexed {
		s.stats.indexProbes.Add(1)
	} else {
		s.stats.tableScans.Add(1)
	}
	var buf [4]uint32
	cols, known := t.cols.Where(q.Where, buf[:0])
	if !known {
		return nil
	}
	var out []memento.Memento
	if indexed {
		for _, id := range ids {
			if r, exists := t.rows[id]; exists && r.cells.Matches(q.Where, cols) {
				out = append(out, t.memento(q.Table, id, r))
			}
		}
	} else {
		for id, r := range t.rows {
			if r.cells.Matches(q.Where, cols) {
				out = append(out, t.memento(q.Table, id, r))
			}
		}
	}
	q.Sort(out)
	return out
}

// applyWrites installs a transaction's buffered writes under the store
// mutex as one commit: it takes the next number from the commit
// counter, which every row it writes keeps as its version, with the
// committer's trace for conflict attribution, and hands the commit's
// notice to the subscribers before the mutex is released. It assumes
// the caller holds the required locks and has already validated. The
// notice's write descriptors, in key order, carry what each write
// changed, or mark the row removed, for finder-result invalidation
// at the edges: a created row's whole image, and an updated row's cells
// that differ from the row it replaces (memento.Columns.Changed), an
// empty map if none do. An image all of whose cells changed is the
// committer's own pending image: Put, Insert and CheckedPut cloned it
// from their caller, and the store keeps cells, not the map. A
// transaction that wrote nothing takes no number and returns zero.
func (s *Store) applyWrites(writes map[memento.Key]pendingWrite, trace, origin uint64) uint64 {
	if len(writes) == 0 {
		return 0
	}
	descs := make([]memento.WriteDesc, 0, len(writes))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	at := time.Now()
	by := &commit{seq: s.seq, trace: trace}
	for key, w := range writes {
		t := s.tables[key.Table]
		if t == nil {
			t = newTable()
			s.tables[key.Table] = t
		}
		desc := memento.WriteDesc{Key: key, Removed: w.remove}
		if w.remove {
			t.drop(key.ID)
		} else {
			r := t.newRow(by, w.mem.Fields)
			desc.After = w.mem.Fields
			if prev, had := t.install(key.ID, r); had {
				desc.After = t.cols.Changed(prev.cells, r.cells, w.mem.Fields)
			}
		}
		descs = append(descs, desc)
	}
	sort.Slice(descs, func(i, j int) bool {
		a, b := descs[i].Key, descs[j].Key
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.ID < b.ID
	})
	s.broadcast(Notice{Seq: s.seq, Writes: descs, CommittedAt: at, OriginTrace: trace}, origin)
	return s.seq
}

// Seed installs rows directly, without locking or notices. It is meant
// for test fixtures and initial database population before the store is
// shared. The call is one commit: it takes the next number from the
// commit counter and every row it installs carries it as its version,
// whatever the memento's Version says (1 for a fresh store's first
// Seed).
func (s *Store) Seed(mems ...memento.Memento) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	by := &commit{seq: s.seq}
	for _, m := range mems {
		t := s.tables[m.Key.Table]
		if t == nil {
			t = newTable()
			s.tables[m.Key.Table] = t
		}
		t.install(m.Key.ID, t.newRow(by, m.Fields))
	}
}

// RowCount returns the number of live rows in a table.
func (s *Store) RowCount(tableName string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[tableName]
	if t == nil {
		return 0
	}
	return len(t.rows)
}

// CurrentVersion returns the committed version of a row, or 0 with
// ErrNotFound if it does not exist. It performs a dirty read and is
// intended for tests and diagnostics.
func (s *Store) CurrentVersion(key memento.Key) (uint64, error) {
	w, ok := s.writer(key)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return w.seq, nil
}

func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

func translateLockErr(err error) error {
	switch {
	case errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, lockmgr.ErrDeadlock):
		return fmt.Errorf("%w: %v", ErrConflict, err)
	case errors.Is(err, lockmgr.ErrClosed):
		return ErrClosed
	}
	return err
}
