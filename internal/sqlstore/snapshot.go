package sqlstore

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"edgeejb/internal/memento"
)

// Snapshots give the database server process (cmd/dbserverd) durability
// across restarts: the full committed state — rows with their versions,
// plus index definitions — is serialized with encoding/gob. A snapshot
// is a point-in-time copy taken under the store mutex, so it is always
// transactionally consistent; in-flight transactions are excluded (their
// buffered writes are not committed state).

// snapshotHeader identifies the format.
const snapshotMagic = "edgeejb-sqlstore-v1"

// snapshot is the on-disk representation. Seq is the store's commit
// counter; a snapshot written before it was recorded decodes it as zero.
type snapshot struct {
	Magic  string
	Seq    uint64
	Tables []snapshotTable
}

type snapshotTable struct {
	Name    string
	Indexes []string
	Rows    []memento.Memento
}

// Dump writes a consistent snapshot of the committed state to w.
func (s *Store) Dump(w io.Writer) error {
	snap := s.capture()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("sqlstore: encode snapshot: %w", err)
	}
	return nil
}

// capture builds the snapshot under the store mutex.
func (s *Store) capture() snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := snapshot{Magic: snapshotMagic, Seq: s.seq}
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tables[name]
		st := snapshotTable{Name: name}
		for field := range t.indexes {
			st.Indexes = append(st.Indexes, field)
		}
		sort.Strings(st.Indexes)
		ids := make([]string, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			st.Rows = append(st.Rows, t.memento(name, id, t.rows[id]))
		}
		snap.Tables = append(snap.Tables, st)
	}
	return snap
}

// Restore replaces the store's committed state with a snapshot read from
// r. It must be called before the store is shared (no locking against
// concurrent transactions is attempted; the caller owns the store).
// Row versions are restored exactly, so optimistic caches built against
// the pre-snapshot store remain coherent, and the commit counter resumes
// above every number the snapshot shows was issued: the recorded
// counter or the highest row version, whichever is larger, so a
// removed-then-recreated row never takes a version it had before. A
// snapshot that does not
// decode, names a table twice, or files a row under a table (or an ID)
// its key contradicts is rejected, and a rejected snapshot leaves the
// store's previous state untouched.
func (s *Store) Restore(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("sqlstore: decode snapshot: %w", err)
	}
	if snap.Magic != snapshotMagic {
		return fmt.Errorf("sqlstore: not a snapshot (magic %q)", snap.Magic)
	}
	tables := make(map[string]*table, len(snap.Tables))
	seq := snap.Seq
	for _, st := range snap.Tables {
		if _, dup := tables[st.Name]; dup {
			return fmt.Errorf("sqlstore: snapshot holds table %q twice", st.Name)
		}
		t := newTable()
		tables[st.Name] = t
		for _, field := range st.Indexes {
			t.indexes[field] = newIndex(t.cols.Column(field))
		}
		for _, m := range st.Rows {
			if m.Key.Table != st.Name {
				return fmt.Errorf("sqlstore: snapshot table %q holds row %s", st.Name, m.Key)
			}
			if _, dup := t.rows[m.Key.ID]; dup {
				return fmt.Errorf("sqlstore: snapshot holds row %s twice", m.Key)
			}
			t.install(m.Key.ID, t.newRow(m.Version, m.Fields))
			seq = max(seq, m.Version)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.tables = tables
	s.seq = seq
	return nil
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

// RestoreFile loads a snapshot from path.
func (s *Store) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sqlstore: open snapshot: %w", err)
	}
	defer f.Close()
	return s.Restore(f)
}
