package sqlstore

import (
	"time"

	"edgeejb/internal/memento"
)

// ConflictError is the attributed form of ErrConflict: an optimistic
// validation failure that names the first conflicting key, the version
// that won the race and, when the store still remembers it, the
// winner's trace. Edge caches use it to emit forensic conflict events
// that pair the loser's trace with the winner's, so a single abort can
// be followed across tiers from both sides.
//
// errors.Is(err, ErrConflict) remains true for a ConflictError, so
// existing retry/abort logic is unaffected.
type ConflictError struct {
	// Key is the first row whose validation failed.
	Key memento.Key
	// Expected is the version the loser read; Actual is the committed
	// version found at validation (zero when the row was removed, or when
	// the conflict is existence-based rather than version-based). A
	// version is the number of the commit that wrote it, so a nonzero
	// Actual names the winning commit: the Seq of its notice.
	Expected, Actual uint64
	// WinnerTrace is the trace ID the Begin context of the last
	// transaction that wrote Key carried, when the store still remembers
	// it (zero otherwise).
	WinnerTrace uint64
	// CommittedAt is when the winner's write was installed (zero when
	// unknown).
	CommittedAt time.Time
	// Detail is the human-readable tail of the message, matching the
	// plain-error text this type replaced.
	Detail string
}

func (e *ConflictError) Error() string { return ErrConflict.Error() + ": " + e.Detail }

func (e *ConflictError) Unwrap() error { return ErrConflict }

// writerInfo remembers the last committed writer of a row for conflict
// attribution.
type writerInfo struct {
	trace uint64
	at    time.Time
}

// lastWriter looks up the most recent committed writer of key.
func (s *Store) lastWriter(key memento.Key) (writerInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.writers[key]
	return w, ok
}

// conflictErr builds an attributed conflict error for key, filling the
// winner's identity from the store's last-writer table.
func (s *Store) conflictErr(key memento.Key, expected, actual uint64, detail string) *ConflictError {
	e := &ConflictError{Key: key, Expected: expected, Actual: actual, Detail: detail}
	if w, ok := s.lastWriter(key); ok {
		e.WinnerTrace = w.trace
		e.CommittedAt = w.at
	}
	return e
}
