package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode int

// Lock modes. Shared and IntentExclusive are incomparable; their join is
// SharedIntentExclusive. Exclusive dominates everything.
const (
	Shared Mode = iota + 1
	IntentExclusive
	SharedIntentExclusive
	Exclusive
)

// String returns the mode's conventional abbreviation.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case IntentExclusive:
		return "IX"
	case SharedIntentExclusive:
		return "SIX"
	case Exclusive:
		return "X"
	default:
		return "invalid"
	}
}

func (m Mode) valid() bool { return m >= Shared && m <= Exclusive }

// Join returns the least mode at least as strong as both arguments.
func Join(a, b Mode) Mode {
	if a == b {
		return a
	}
	if a == Exclusive || b == Exclusive {
		return Exclusive
	}
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	// Any distinct combination of {S, IX, SIX} joins to SIX.
	return SharedIntentExclusive
}

// Covers reports whether holding mode a makes a request for mode b
// redundant.
func Covers(a, b Mode) bool { return Join(a, b) == a }

// Compatible reports whether two different owners may hold modes a and b
// on the same resource simultaneously.
func Compatible(a, b Mode) bool {
	switch {
	case a == Exclusive || b == Exclusive:
		return false
	case a == Shared && b == Shared:
		return true
	case a == IntentExclusive && b == IntentExclusive:
		return true
	default:
		// S vs IX, anything vs SIX.
		return false
	}
}

// Owner identifies a lock holder (typically a transaction ID).
type Owner uint64

// Resource identifies a lockable object. The datastore uses table names
// for table locks and memento.Key values for row locks; any comparable
// value works.
type Resource any

var (
	// ErrTimeout is returned when a lock cannot be acquired before the
	// context deadline or the manager's default timeout elapses. The
	// store treats it as a deadlock-resolution signal: the waiting
	// transaction aborts.
	ErrTimeout = errors.New("lockmgr: lock wait timed out (possible deadlock)")
	// ErrClosed is returned when the manager has been shut down.
	ErrClosed = errors.New("lockmgr: manager closed")
)

// request is a queued lock acquisition. mode is the effective (joined)
// mode the owner needs to end up holding.
type request struct {
	owner Owner
	mode  Mode
	ready chan struct{} // closed when granted
}

// lockState tracks the grant table and waiter queue for one resource.
type lockState struct {
	holders map[Owner]Mode
	waiters []*request
}

// Manager grants and releases locks. The zero value is not usable; call
// New.
type Manager struct {
	mu             sync.Mutex
	locks          map[Resource]*lockState
	held           map[Owner]map[Resource]struct{}
	defaultTimeout time.Duration
	closed         bool
	done           chan struct{} // closed by Close, waking every waiter
}

// Option configures a Manager.
type Option interface {
	apply(*Manager)
}

type timeoutOption time.Duration

func (t timeoutOption) apply(m *Manager) { m.defaultTimeout = time.Duration(t) }

// WithTimeout sets the default lock-wait timeout used when the caller's
// context has no deadline. The default is one second.
func WithTimeout(d time.Duration) Option { return timeoutOption(d) }

// New returns a ready-to-use Manager.
func New(opts ...Option) *Manager {
	m := &Manager{
		locks:          make(map[Resource]*lockState),
		held:           make(map[Owner]map[Resource]struct{}),
		defaultTimeout: time.Second,
		done:           make(chan struct{}),
	}
	for _, o := range opts {
		o.apply(m)
	}
	return m
}

// Acquire obtains a lock on res in (at least) the given mode on behalf
// of owner, blocking until the lock is granted, the context is done, or
// the wait times out. If owner already holds a lock on res, the request
// is treated as an upgrade to the join of the held and requested modes;
// requests already covered by the held mode return immediately.
func (m *Manager) Acquire(ctx context.Context, owner Owner, res Resource, mode Mode) error {
	if !mode.valid() {
		return fmt.Errorf("lockmgr: invalid mode %d", mode)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	st := m.locks[res]
	if st == nil {
		st = &lockState{holders: make(map[Owner]Mode)}
		m.locks[res] = st
	}
	held := st.holders[owner]
	want := Join(held, mode)
	if held != 0 && Covers(held, want) {
		m.mu.Unlock()
		return nil // already strong enough
	}
	if st.compatible(owner, want) && (held != 0 || len(st.waiters) == 0) {
		// Immediate grant. Upgrades may bypass the waiter queue (the
		// standard trick that avoids the trivial upgrade self-deadlock);
		// fresh requests respect FIFO order behind existing waiters.
		st.holders[owner] = want
		m.recordHeld(owner, res)
		m.mu.Unlock()
		return nil
	}
	if m.wouldDeadlock(owner, res, want) {
		m.mu.Unlock()
		return ErrDeadlock
	}
	req := &request{owner: owner, mode: want, ready: make(chan struct{})}
	st.waiters = append(st.waiters, req)
	m.mu.Unlock()

	timeout := m.defaultTimeout
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	select {
	case <-req.ready:
		return nil
	case <-ctx.Done():
		if m.abandon(res, req) {
			return nil // granted in the race window; keep the lock
		}
		return ctx.Err()
	case <-timer.C:
		if m.abandon(res, req) {
			return nil
		}
		return ErrTimeout
	case <-m.done:
		if m.abandon(res, req) {
			return nil
		}
		return ErrClosed
	}
}

// abandon removes a timed-out or cancelled waiter. It reports true when
// the request was granted concurrently with the timeout, in which case
// the grant stands.
func (m *Manager) abandon(res Resource, req *request) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-req.ready:
		return true
	default:
	}
	st := m.locks[res]
	if st == nil {
		return false
	}
	for i, w := range st.waiters {
		if w == req {
			st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
			break
		}
	}
	st.pump(m, res)
	m.gcLocked(res, st)
	return false
}

// Release drops owner's lock on one resource. Releasing a lock that is
// not held is a no-op.
func (m *Manager) Release(owner Owner, res Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(owner, res)
}

// ReleaseAll drops every lock held by owner; transactions call it at
// commit or abort (strict two-phase locking).
func (m *Manager) ReleaseAll(owner Owner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for res := range m.held[owner] {
		m.releaseLocked(owner, res)
	}
}

// HeldCount returns the number of resources on which owner holds locks.
func (m *Manager) HeldCount(owner Owner) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[owner])
}

// Holds reports whether owner currently holds a lock on res at least as
// strong as mode.
func (m *Manager) Holds(owner Owner, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.locks[res]
	if st == nil {
		return false
	}
	held, ok := st.holders[owner]
	return ok && Covers(held, mode)
}

// Close fails all future Acquire calls and wakes current waiters, which
// return ErrClosed unless their grant landed first. Held locks remain
// recorded so in-flight releases stay harmless.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed = true
		close(m.done)
	}
}

func (m *Manager) releaseLocked(owner Owner, res Resource) {
	st := m.locks[res]
	if st == nil {
		return
	}
	if _, ok := st.holders[owner]; !ok {
		return
	}
	delete(st.holders, owner)
	if hr := m.held[owner]; hr != nil {
		delete(hr, res)
		if len(hr) == 0 {
			delete(m.held, owner)
		}
	}
	st.pump(m, res)
	m.gcLocked(res, st)
}

func (m *Manager) gcLocked(res Resource, st *lockState) {
	if len(st.holders) == 0 && len(st.waiters) == 0 {
		delete(m.locks, res)
	}
}

func (m *Manager) recordHeld(owner Owner, res Resource) {
	hr := m.held[owner]
	if hr == nil {
		hr = make(map[Resource]struct{})
		m.held[owner] = hr
	}
	hr[res] = struct{}{}
}

// compatible reports whether owner could be granted mode given the other
// current holders.
func (s *lockState) compatible(owner Owner, mode Mode) bool {
	for h, hm := range s.holders {
		if h == owner {
			continue
		}
		if !Compatible(mode, hm) {
			return false
		}
	}
	return true
}

// pump grants queued waiters. Upgrades (waiters that already hold a
// lock) are scanned first so a release that leaves an upgrader as the
// only blocker resolves immediately; remaining waiters are granted in
// FIFO order until the head is incompatible.
func (s *lockState) pump(m *Manager, res Resource) {
	for i := 0; i < len(s.waiters); {
		w := s.waiters[i]
		if _, holds := s.holders[w.owner]; holds && s.compatible(w.owner, w.mode) {
			s.holders[w.owner] = Join(s.holders[w.owner], w.mode)
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			close(w.ready)
			continue
		}
		i++
	}
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if !s.compatible(w.owner, w.mode) {
			return
		}
		s.holders[w.owner] = Join(s.holders[w.owner], w.mode)
		m.recordHeld(w.owner, res)
		s.waiters = s.waiters[1:]
		close(w.ready)
	}
}
