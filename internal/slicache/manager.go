package slicache

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/wire"
)

// Manager is the SLI Resource Manager: it replaces the pessimistic JDBC
// resource manager with optimistic, cache-backed data access (§2.3). It
// implements component.ResourceManager, so a container built over a
// Manager runs unmodified application code against cached entity state.
type Manager struct {
	conn     storeapi.Conn
	shipping CommitShipping
	common   *CommonStore
	finders  *FinderCache
	now      func() time.Time
	// origin names this cache's commits and subscription to the store,
	// which then never sends it a notice of its own commit.
	origin uint64

	// fills holds the open fills (see Fill); fillMu guards it and every
	// open fill's fields.
	fillMu sync.Mutex
	fills  map[*Fill]struct{}

	mu      sync.Mutex
	cancel  func()
	started bool
	stop    chan struct{}
	done    chan struct{}

	stats struct {
		begins, commits, conflicts atomic.Uint64
		loads, queries             atomic.Uint64
		missFetches                atomic.Uint64
		noticesApplied             atomic.Uint64
		resubscribes               atomic.Uint64
	}
}

var _ component.ResourceManager = (*Manager)(nil)

// ManagerStats is a snapshot of runtime counters.
type ManagerStats struct {
	Begins         uint64
	Commits        uint64
	Conflicts      uint64
	Loads          uint64
	Queries        uint64
	MissFetches    uint64
	NoticesApplied uint64
	// Resubscribes counts invalidation-stream reconnections.
	Resubscribes uint64
	Cache        CommonStoreStats
	// Finders is the finder-result cache's snapshot (all zero when the
	// cache is disabled).
	Finders FinderCacheStats
}

// ManagerOption configures a Manager.
type ManagerOption interface {
	apply(*managerConfig)
}

type managerConfig struct {
	shipping    CommitShipping
	finderCache bool
}

type shippingOption CommitShipping

func (o shippingOption) apply(c *managerConfig) { c.shipping = CommitShipping(o) }

// WithShipping selects the commit-shipping mode. The default is
// PerImage (combined-servers).
func WithShipping(s CommitShipping) ManagerOption { return shippingOption(s) }

type finderCacheOption bool

func (o finderCacheOption) apply(c *managerConfig) { c.finderCache = bool(o) }

// WithFinderCache toggles the transactional finder-result cache
// (default on; deploy.Paper() turns it off): committed custom-finder
// result sets are cached by normalized query and invalidated when a
// commit notice's write set overlaps a query or its rows — Pfeifer &
// Lockemann's transactional method caching applied to the paper's
// custom finders. A result is cached only if no write the edge was
// told of while its store call was in flight could have changed it.
// Rows served from a cached result still enter the transaction's read
// set and are validated optimistically at commit; the result's
// membership is current as of the last invalidation the edge applied,
// and a finder may miss a row committed since, a phantom §2.2 already
// allows. The cache only removes the high-latency finder round trip.
func WithFinderCache(enabled bool) ManagerOption { return finderCacheOption(enabled) }

// NewManager builds an SLI resource manager over a datastore handle. In
// the combined-servers configuration conn reaches the database server
// directly; in split-servers it reaches the back-end server. Call Start
// to begin consuming invalidation notices and Close to stop.
func NewManager(conn storeapi.Conn, opts ...ManagerOption) *Manager {
	cfg := managerConfig{shipping: PerImage, finderCache: true}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return &Manager{
		conn:     conn,
		shipping: cfg.shipping,
		common:   NewCommonStore(),
		finders:  NewFinderCache(cfg.finderCache),
		now:      time.Now,
		origin:   newOrigin(),
		fills:    make(map[*Fill]struct{}),
	}
}

// newOrigin mints a manager's origin: 62 random bits under a set bit 62,
// so origins are unique across processes, never zero, and always a
// 9-byte uvarint on the wire.
func newOrigin() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("slicache: no randomness for the cache origin: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])&(1<<62-1) | 1<<62
}

// SetClock overrides the manager's (and its common store's) timestamp
// source; tests use it to control entry ages deterministically. The
// finder cache keeps no clock: a cached result carries the time its
// query read from this one before the store call.
func (m *Manager) SetClock(now func() time.Time) {
	m.now = now
	m.common.SetClock(now)
}

// CommonStore exposes the shared cache (for tests and diagnostics).
func (m *Manager) CommonStore() *CommonStore { return m.common }

// FinderCache exposes the finder-result cache (for tests and
// diagnostics).
func (m *Manager) FinderCache() *FinderCache { return m.finders }

// Shipping returns the commit-shipping mode in use.
func (m *Manager) Shipping() CommitShipping { return m.shipping }

// Start subscribes to the datastore's invalidation stream and keeps it
// alive: if the stream drops (back-end restart, network blip), the
// manager clears both caches — notices may be missed, so every entry is
// suspect — and resubscribes with backoff. A manager never started
// learns of other edges' commits only when they fail its validation.
// Safe to call more than once; the initial subscription failure is
// returned synchronously.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return nil
	}
	m.started = true
	m.mu.Unlock()

	ch, cancel, err := m.conn.Subscribe(sqlstore.OriginContext(ctx, m.origin))
	if err != nil {
		m.mu.Lock()
		m.started = false
		m.mu.Unlock()
		return err
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.mu.Lock()
	m.stop = stop
	m.done = done
	m.cancel = cancel
	m.mu.Unlock()

	go m.invalidationLoop(ch, stop, done)
	return nil
}

// invalidationLoop consumes notices and resubscribes after stream
// interruptions until stopped.
func (m *Manager) invalidationLoop(ch <-chan sqlstore.Notice, stop, done chan struct{}) {
	defer close(done)
	backoff := wire.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	for {
		m.drainNotices(ch, stop)
		select {
		case <-stop:
			return
		default:
		}
		// The stream dropped: anything cached could be stale now.
		m.clear()
		for attempt := 0; ; attempt++ {
			newCh, cancel, err := m.conn.Subscribe(sqlstore.OriginContext(context.Background(), m.origin))
			if err == nil {
				m.mu.Lock()
				m.cancel = cancel
				m.mu.Unlock()
				// Closed while we were resubscribing?
				select {
				case <-stop:
					cancel()
					return
				default:
				}
				// Entries filled while the stream was down may have missed
				// notices too.
				m.clear()
				m.stats.resubscribes.Add(1)
				ch = newCh
				break
			}
			if !backoff.Sleep(attempt, stop) {
				return
			}
		}
	}
}

// drainNotices consumes one subscription channel until it closes or the
// manager stops.
func (m *Manager) drainNotices(ch <-chan sqlstore.Notice, stop chan struct{}) {
	for {
		select {
		case n, ok := <-ch:
			if !ok {
				return
			}
			m.noteNotice(n)
		case <-stop:
			return
		}
	}
}

// noteNotice applies one invalidation notice — never for one of this
// manager's own commits, which the store does not send it — and records
// its forensics: push latency (when the store stamped the commit time),
// the staleness window the eviction closed, and a structured
// invalidation event.
func (m *Manager) noteNotice(n sqlstore.Notice) {
	var lat time.Duration
	stamped := !n.CommittedAt.IsZero()
	if stamped {
		if lat = m.now().Sub(n.CommittedAt); lat < 0 {
			lat = 0
		}
		obsInvalLatency.Observe(lat)
	}
	ev := obs.Event{
		Type:       obs.EventInvalidation,
		OtherTrace: n.OriginTrace,
		Keys:       len(n.Writes),
		Latency:    lat,
	}
	if len(n.Writes) > 0 {
		ev.Bean = n.Writes[0].Key.Table
		ev.Key = n.Writes[0].Key.String()
	}
	ev.Evicted = m.evict(n.Writes)
	if ev.Evicted > 0 && stamped {
		// Entries were actually dropped: the push latency bounds how
		// long they could have been served stale.
		obsStaleness.Observe(lat)
		ev.Age = lat
	}
	// The event goes out before the notice counts as applied, so a
	// reader that sees the count sees the event too.
	obs.DefaultEvents.Emit(ev)
	m.stats.noticesApplied.Add(1)
}

// Close stops the invalidation subscription, waiting for the consumer
// goroutine to exit. It does not close the datastore handle.
func (m *Manager) Close() {
	m.mu.Lock()
	stop, done, cancel := m.stop, m.done, m.cancel
	m.stop, m.done, m.cancel = nil, nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		Begins:         m.stats.begins.Load(),
		Commits:        m.stats.commits.Load(),
		Conflicts:      m.stats.conflicts.Load(),
		Loads:          m.stats.loads.Load(),
		Queries:        m.stats.queries.Load(),
		MissFetches:    m.stats.missFetches.Load(),
		NoticesApplied: m.stats.noticesApplied.Load(),
		Resubscribes:   m.stats.resubscribes.Load(),
		Cache:          m.common.Stats(),
		Finders:        m.finders.Stats(),
	}
}

// Begin implements component.ResourceManager: it opens a per-transaction
// transient store over the common store.
func (m *Manager) Begin(ctx context.Context) (component.DataTx, error) {
	m.stats.begins.Add(1)
	return &sliTx{mgr: m, entries: make(map[memento.Key]*entry)}, nil
}
