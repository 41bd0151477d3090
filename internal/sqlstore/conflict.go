package sqlstore

import "edgeejb/internal/memento"

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
	// WinnerTrace is the trace ID the Begin context of the commit that
	// wrote the row found at validation carried, when the store still
	// remembers it: the row keeps it for as long as it lives, so it is
	// zero for a removed row, a seeded or restored one, and an untraced
	// commit.
	WinnerTrace uint64
	// Detail is the human-readable tail of the message, matching the
	// plain-error text this type replaced.
	Detail string
}

func (e *ConflictError) Error() string { return ErrConflict.Error() + ": " + e.Detail }

func (e *ConflictError) Unwrap() error { return ErrConflict }
