package sqlstore

import (
	"context"
	"errors"
	"fmt"

	"edgeejb/internal/lockmgr"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// pendingWrite is a buffered mutation applied at commit.
type pendingWrite struct {
	mem    memento.Memento
	remove bool
}

// Tx is a pessimistic, strict-two-phase-locking transaction. All methods
// must be called from a single goroutine. Locks are held until Commit or
// Abort; writes are buffered and installed atomically at commit.
type Tx struct {
	s      *Store
	id     lockmgr.Owner
	trace  uint64
	origin uint64
	writes map[memento.Key]pendingWrite
	done   bool
	seq    uint64
}

// Begin starts a pessimistic transaction. The context's trace ID (if
// any) is remembered so a commit can be attributed to the interaction
// that issued it — both on the invalidation notice and on every row it
// writes, which a later transaction's conflict on the row names. Its
// origin (see OriginContext) keeps the commit's notice from the edge
// that made it.
func (s *Store) Begin(ctx context.Context) (*Tx, error) {
	return s.begin(ctx, OriginOf(ctx))
}

// begin is Begin under an explicit origin: a commit set names its own.
func (s *Store) begin(ctx context.Context, origin uint64) (*Tx, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.stats.begins.Add(1)
	return &Tx{
		s:      s,
		id:     lockmgr.Owner(s.nextTx.Add(1)),
		trace:  obs.TraceID(ctx),
		origin: origin,
		writes: make(map[memento.Key]pendingWrite),
	}, nil
}

// ID returns the store-assigned transaction identifier.
func (tx *Tx) ID() uint64 { return uint64(tx.id) }

// Seq returns the number a committed transaction took from the store's
// commit counter: the version of every row it wrote. It is zero before
// Commit and for a commit that wrote nothing.
func (tx *Tx) Seq() uint64 { return tx.seq }

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.s.isClosed() {
		return ErrClosed
	}
	return nil
}

// lockRow acquires a row lock plus the matching table intention lock.
func (tx *Tx) lockRow(ctx context.Context, key memento.Key, mode lockmgr.Mode) error {
	tableMode := lockmgr.IntentExclusive
	if mode == lockmgr.Shared {
		// Row reads need no table-level presence: a table S lock held by
		// a query does not conflict with concurrent row reads.
		if err := tx.s.lm.Acquire(ctx, tx.id, rowRes(key), mode); err != nil {
			tx.s.noteLockErr(err)
			return translateLockErr(err)
		}
		return nil
	}
	if err := tx.s.lm.Acquire(ctx, tx.id, tableRes(key.Table), tableMode); err != nil {
		tx.s.noteLockErr(err)
		return translateLockErr(err)
	}
	if err := tx.s.lm.Acquire(ctx, tx.id, rowRes(key), mode); err != nil {
		tx.s.noteLockErr(err)
		return translateLockErr(err)
	}
	return nil
}

// Get reads a row under a shared lock. The transaction's own buffered
// writes are visible to it.
func (tx *Tx) Get(ctx context.Context, table, id string) (memento.Memento, error) {
	return tx.get(ctx, memento.Key{Table: table, ID: id}, lockmgr.Shared)
}

// GetForUpdate reads a row under an exclusive lock, the classic
// SELECT ... FOR UPDATE used ahead of an update to avoid upgrade
// deadlocks.
func (tx *Tx) GetForUpdate(ctx context.Context, table, id string) (memento.Memento, error) {
	return tx.get(ctx, memento.Key{Table: table, ID: id}, lockmgr.Exclusive)
}

// get is Get and GetForUpdate: they differ only in the lock's mode.
func (tx *Tx) get(ctx context.Context, key memento.Key, mode lockmgr.Mode) (memento.Memento, error) {
	if err := tx.check(); err != nil {
		return memento.Memento{}, err
	}
	tx.s.stats.gets.Add(1)
	if w, ok := tx.writes[key]; ok {
		if w.remove {
			return memento.Memento{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return w.mem.Clone(), nil
	}
	if err := tx.lockRow(ctx, key, mode); err != nil {
		return memento.Memento{}, err
	}
	return tx.s.readRow(key)
}

// Put upserts a row under an exclusive lock. The stored version is
// assigned at commit time (the commit's number, see Seq); the
// memento's Version field is ignored.
func (tx *Tx) Put(ctx context.Context, m memento.Memento) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.puts.Add(1)
	if err := whole(m); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, m.Key, lockmgr.Exclusive); err != nil {
		return err
	}
	tx.writes[m.Key] = pendingWrite{mem: m.Clone()}
	return nil
}

// whole refuses changed cells (memento.Memento.Delta) where no version
// check pins the row they would change.
func whole(m memento.Memento) error {
	if m.Delta {
		return fmt.Errorf("sqlstore: changed cells of %s at no version read", m.Key)
	}
	return nil
}

// Insert creates a row, failing with ErrExists if the key already has a
// committed row or a buffered write in this transaction.
func (tx *Tx) Insert(ctx context.Context, m memento.Memento) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.inserts.Add(1)
	if err := whole(m); err != nil {
		return err
	}
	if err := tx.lockRow(ctx, m.Key, lockmgr.Exclusive); err != nil {
		return err
	}
	if w, ok := tx.writes[m.Key]; ok && !w.remove {
		return fmt.Errorf("%w: %s", ErrExists, m.Key)
	} else if !ok {
		if _, exists := tx.s.writer(m.Key); exists {
			return fmt.Errorf("%w: %s", ErrExists, m.Key)
		}
	}
	tx.writes[m.Key] = pendingWrite{mem: m.Clone()}
	return nil
}

// Delete removes a row under an exclusive lock, failing with ErrNotFound
// if it does not exist.
func (tx *Tx) Delete(ctx context.Context, table, id string) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.deletes.Add(1)
	key := memento.Key{Table: table, ID: id}
	if err := tx.lockRow(ctx, key, lockmgr.Exclusive); err != nil {
		return err
	}
	if w, ok := tx.writes[key]; ok {
		if w.remove {
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
	} else if _, exists := tx.s.writer(key); !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	tx.writes[key] = pendingWrite{remove: true}
	return nil
}

// Query runs a predicate query under a table shared lock (blocking
// concurrent writers to the table, which is what prevents phantoms for
// pessimistic transactions). The transaction's buffered writes are
// merged into the result.
func (tx *Tx) Query(ctx context.Context, q memento.Query) ([]memento.Memento, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	tx.s.stats.queries.Add(1)
	if err := tx.s.lm.Acquire(ctx, tx.id, tableRes(q.Table), lockmgr.Shared); err != nil {
		tx.s.noteLockErr(err)
		return nil, translateLockErr(err)
	}
	rows := tx.s.scanTable(q)
	if len(tx.writes) == 0 {
		return rows, nil
	}
	// Overlay this transaction's own buffered writes.
	out := rows[:0]
	for _, m := range rows {
		if w, ok := tx.writes[m.Key]; ok {
			if w.remove || !q.Matches(w.mem) {
				continue
			}
			mm := w.mem.Clone()
			mm.Version = m.Version
			out = append(out, mm)
			continue
		}
		out = append(out, m)
	}
	// Add buffered writes the scan could not have surfaced: keys whose
	// committed row is absent, or whose committed row does not match the
	// query even though the buffered state does (an update that moves a
	// row INTO the result set).
	for key, w := range tx.writes {
		if w.remove || key.Table != q.Table || !q.Matches(w.mem) {
			continue
		}
		if version, exists, matches := tx.s.rowState(key, q.Where); exists {
			if matches {
				continue // already overlaid in the scan pass
			}
			mm := w.mem.Clone()
			mm.Version = version
			out = append(out, mm)
			continue
		}
		out = append(out, w.mem.Clone())
	}
	q.Sort(out)
	return out, nil
}

// CheckVersion verifies that a row is still at the given version (or,
// for version 0, that it still does not exist). The combined-servers
// optimistic commit path calls it once per read-set element — each call
// is a wire round trip, which is exactly the per-memento cost the paper
// attributes to the ES/RDB cached configuration.
func (tx *Tx) CheckVersion(ctx context.Context, key memento.Key, version uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.vchecks.Add(1)
	if err := tx.lockRow(ctx, key, lockmgr.Shared); err != nil {
		return err
	}
	return tx.s.checkVersion(key, version)
}

// CheckedPut updates a row only if it is still at m.Version; with
// m.Version == 0 it acts as a checked insert (the key must not exist).
// An update's changed cells (m.Delta) are laid over the row they were
// made from, which the exclusive lock and the version check pin: this
// transaction's own earlier write to the key if it has one, else the
// committed row at m.Version.
func (tx *Tx) CheckedPut(ctx context.Context, m memento.Memento) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.puts.Add(1)
	if m.Version == 0 {
		if err := whole(m); err != nil {
			return err
		}
	}
	if err := tx.lockRow(ctx, m.Key, lockmgr.Exclusive); err != nil {
		return err
	}
	if err := tx.verifyVersionLocked(m.Key, m.Version); err != nil {
		return err
	}
	if !m.Delta {
		tx.writes[m.Key] = pendingWrite{mem: m.Clone()}
		return nil
	}
	var base memento.Fields
	if w, ok := tx.writes[m.Key]; ok {
		base = w.mem.Fields.Clone()
	} else {
		row, err := tx.s.readRow(m.Key)
		if err != nil {
			return err
		}
		base = row.Fields
	}
	tx.writes[m.Key] = pendingWrite{mem: m.Apply(base)}
	return nil
}

// CheckedDelete removes a row only if it is still at the given version.
func (tx *Tx) CheckedDelete(ctx context.Context, key memento.Key, version uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.s.stats.deletes.Add(1)
	if err := tx.lockRow(ctx, key, lockmgr.Exclusive); err != nil {
		return err
	}
	if version == 0 {
		return fmt.Errorf("%w: cannot delete unversioned %s", ErrConflict, key)
	}
	if err := tx.verifyVersionLocked(key, version); err != nil {
		return err
	}
	tx.writes[key] = pendingWrite{remove: true}
	return nil
}

// verifyVersionLocked checks a key's committed version against an
// expectation, accounting for this transaction's own buffered writes
// (a second checked write to the same key in one transaction sees its
// own earlier write as current).
func (tx *Tx) verifyVersionLocked(key memento.Key, version uint64) error {
	if w, ok := tx.writes[key]; ok {
		// Our own buffered state supersedes the committed row.
		if w.remove {
			if version != 0 {
				return fmt.Errorf("%w: %s removed in this transaction", ErrConflict, key)
			}
			return nil
		}
		return nil
	}
	return tx.s.checkVersion(key, version)
}

// checkVersion verifies that key's committed row is at version (or, for
// version 0, that it does not exist). If not, the conflict names the
// version found and the trace of the commit that wrote it, the winner;
// a removed row leaves nothing to name.
func (s *Store) checkVersion(key memento.Key, version uint64) error {
	w, ok := s.writer(key)
	var detail string
	switch {
	case version == 0 && ok:
		detail = fmt.Sprintf("%s created concurrently", key)
	case version != 0 && !ok:
		detail = fmt.Sprintf("%s removed concurrently", key)
	case w.seq != version:
		detail = fmt.Sprintf("%s at v%d, expected v%d", key, w.seq, version)
	default:
		return nil
	}
	return &ConflictError{Key: key, Expected: version, Actual: w.seq, WinnerTrace: w.trace, Detail: detail}
}

// Commit installs the transaction's buffered writes atomically as one
// commit (see Seq), broadcasts an invalidation notice for the mutated
// keys, and releases all locks.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.seq = tx.s.applyWrites(tx.writes, tx.trace, tx.origin)
	tx.s.lm.ReleaseAll(tx.id)
	tx.s.stats.commits.Add(1)
	return nil
}

// Abort discards buffered writes and releases all locks. Aborting a
// finished transaction is a no-op.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.writes = nil
	tx.s.lm.ReleaseAll(tx.id)
	tx.s.stats.aborts.Add(1)
}

func (s *Store) noteLockErr(err error) {
	if errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, lockmgr.ErrDeadlock) {
		s.stats.lockTimeouts.Add(1)
	}
}

// rowRes and tableRes build lock-manager resource identities.
func rowRes(key memento.Key) lockmgr.Resource { return key }

type tableLock string

func tableRes(table string) lockmgr.Resource { return tableLock(table) }
