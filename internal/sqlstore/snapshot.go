package sqlstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"edgeejb/internal/memento"
	"edgeejb/internal/wire"
)

// Snapshots give the database server process (cmd/dbserverd) durability
// across restarts: the full committed state — rows with their versions,
// plus index definitions — written in the row encoding the wire uses
// (memento.AppendMemento). A snapshot is a point-in-time copy taken
// under the store mutex, so it is always transactionally consistent;
// in-flight transactions are excluded (their buffered writes are not
// committed state).
//
// The format (v2): the magic, then as uvarints the store's incarnation
// and commit counter and the table count, then per table, in name
// order, its name, its indexed fields and its rows in ID order, each a
// memento. Table and field names go through one wire.Names for the
// whole file, so each is a literal once and a short index after that.
// A v1 (gob) snapshot is refused as not a snapshot.
//
// Commit numbers are incarnation<<incarnationShift | n. A fresh store is
// incarnation 0 and a restored one runs at its snapshot's incarnation
// plus one, so every number it issues exceeds every number issued
// before the crash, the ones lost with the commits after the last
// snapshot included: a proof of a lost image can never match a row.

// snapshotMagic opens every snapshot; it names the format's version.
const snapshotMagic = "edgeejb-sqlstore-v2"

// incarnationShift places the incarnation in a commit number's high 24
// bits, which leaves 2^40 commits to each incarnation.
const (
	incarnationShift = 40
	maxIncarnation   = 1<<(64-incarnationShift) - 1
)

// Dump writes a consistent snapshot of the committed state to w.
func (s *Store) Dump(w io.Writer) error {
	if _, err := w.Write(s.appendSnapshot([]byte(snapshotMagic))); err != nil {
		return fmt.Errorf("sqlstore: write snapshot: %w", err)
	}
	return nil
}

// appendSnapshot encodes the committed state after dst under the store
// mutex.
func (s *Store) appendSnapshot(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := new(wire.Names)
	dst = binary.AppendUvarint(dst, s.inc)
	dst = binary.AppendUvarint(dst, s.seq)
	dst = binary.AppendUvarint(dst, uint64(len(s.tables)))
	for _, name := range slices.Sorted(maps.Keys(s.tables)) {
		t := s.tables[name]
		dst = wire.AppendName(dst, names, name)
		dst = binary.AppendUvarint(dst, uint64(len(t.indexes)))
		for _, field := range slices.Sorted(maps.Keys(t.indexes)) {
			dst = wire.AppendName(dst, names, field)
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.rows)))
		for _, id := range slices.Sorted(maps.Keys(t.rows)) {
			dst = memento.AppendMemento(dst, names, t.memento(name, id, t.rows[id]))
		}
	}
	return dst
}

// Restore replaces the store's committed state with a snapshot read from
// r. It must be called before the store is shared (no locking against
// concurrent transactions is attempted; the caller owns the store).
// Row versions are restored exactly, so a read proof of a row the
// snapshot holds still validates. The store then runs at the snapshot's
// incarnation plus one, and its commit counter resumes above the
// largest of that incarnation's first number, the recorded counter and
// the highest row version (a removed row's last version is only in the
// counter). Only RestoreFile makes the new incarnation durable. A
// snapshot that does not decode, names a table twice, or files a row
// under a table (or an ID) its key contradicts is rejected, and a
// rejected snapshot leaves the store's previous state untouched.
func (s *Store) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("sqlstore: read snapshot: %w", err)
	}
	inc, seq, tables, err := readSnapshot(data)
	if err != nil {
		return err
	}
	if inc >= maxIncarnation {
		return fmt.Errorf("sqlstore: snapshot incarnation %d has no successor", inc)
	}
	inc++
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.tables = tables
	s.inc = inc
	s.seq = max(seq, inc<<incarnationShift)
	return nil
}

// readSnapshot decodes a snapshot written by Dump into fresh tables. seq
// is the larger of the recorded counter and the highest row version.
func readSnapshot(data []byte) (inc, seq uint64, tables map[string]*table, err error) {
	body, ok := bytes.CutPrefix(data, []byte(snapshotMagic))
	if !ok {
		return 0, 0, nil, errors.New("sqlstore: not a snapshot")
	}
	r := wire.NewReader(body, new(wire.Names))
	inc = r.Uvarint()
	seq = r.Uvarint()
	n := r.Len()
	tables = make(map[string]*table, wire.Prealloc(n))
	commits := make(map[uint64]*commit) // one per version, as at dump
	for i := 0; i < n && !r.Failed(); i++ {
		name := r.Name()
		if _, dup := tables[name]; dup && !r.Failed() {
			return 0, 0, nil, fmt.Errorf("sqlstore: snapshot holds table %q twice", name)
		}
		t := newTable()
		tables[name] = t
		for j, k := 0, r.Len(); j < k && !r.Failed(); j++ {
			field := r.Name()
			t.indexes[field] = newIndex(t.cols.Column(field))
		}
		for j, k := 0, r.Len(); j < k; j++ {
			m := memento.ReadMemento(r)
			if r.Failed() {
				break
			}
			if m.Key.Table != name {
				return 0, 0, nil, fmt.Errorf("sqlstore: snapshot table %q holds row %s", name, m.Key)
			}
			if _, dup := t.rows[m.Key.ID]; dup {
				return 0, 0, nil, fmt.Errorf("sqlstore: snapshot holds row %s twice", m.Key)
			}
			by := commits[m.Version]
			if by == nil {
				by = &commit{seq: m.Version}
				commits[m.Version] = by
			}
			t.install(m.Key.ID, t.newRow(by, m.Fields))
			seq = max(seq, m.Version)
		}
	}
	if err := r.Err(); err != nil {
		return 0, 0, nil, fmt.Errorf("sqlstore: decode snapshot: %w", err)
	}
	return inc, seq, tables, nil
}

// DumpFile writes a snapshot atomically and durably: to a temporary
// file first, synced before it is renamed over path, with the parent
// directory synced after — so a crash at any point leaves either the
// previous snapshot or the complete new one, never an empty file under
// the final name.
func (s *Store) DumpFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sqlstore: snapshot file: %w", err)
	}
	if err := s.Dump(f); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("sqlstore: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("sqlstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("sqlstore: install snapshot: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("sqlstore: open snapshot directory: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("sqlstore: sync snapshot directory: %w", err)
	}
	return nil
}

// RestoreFile loads a snapshot from path and, before it returns, claims
// the store's new incarnation on disk by dumping over path, so a second
// crash before the next snapshot restores at a later incarnation still
// and issues no number twice. If that dump fails the store holds the
// snapshot's state but must not serve: its incarnation is not durable.
func (s *Store) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sqlstore: open snapshot: %w", err)
	}
	err = s.Restore(f)
	f.Close()
	if err != nil {
		return err
	}
	return s.DumpFile(path)
}
