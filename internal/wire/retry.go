package wire

import (
	"math"
	"math/rand"
	"time"
)

// Backoff computes bounded exponential backoff with jitter for retry
// loops: attempt 0 waits about Base, each further attempt doubles the
// wait, capped at Max. Jitter randomizes each wait to desynchronize
// retry storms — when a restarted server comes back, its clients should
// not all reconnect in the same instant.
//
// The zero value is usable and means "no wait" (Delay returns 0), so a
// policy with no Backoff degenerates to immediate retries.
type Backoff struct {
	// Base is the first attempt's wait.
	Base time.Duration
	// Max caps the exponential growth (default: no cap beyond Base<<attempt).
	Max time.Duration
	// Jitter in [0,1] scales each wait by a random factor drawn from
	// [1-Jitter, 1]. Zero means deterministic waits.
	Jitter float64
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		next := d * 2
		if next <= 0 {
			// Doubling overflowed time.Duration. Clamp instead of going
			// negative: a negative delay makes Sleep return immediately,
			// turning the backoff into a zero-wait retry hammer at exactly
			// the attempt counts where the peer is struggling most.
			next = time.Duration(math.MaxInt64)
		}
		d = next
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		// rand's top-level source is safe for concurrent use.
		d = time.Duration(float64(d) * (1 - j*rand.Float64()))
	}
	return d
}

// Sleep waits Delay(attempt), cut short when done closes or fires.
// It reports false if the wait was interrupted.
func (b Backoff) Sleep(attempt int, done <-chan struct{}) bool {
	d := b.Delay(attempt)
	if d <= 0 {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

// RetryPolicy bounds transport-level retries of one-shot calls.
// MaxAttempts counts the first try: 1 (or 0) means no retry. Retries
// consume the Backoff schedule; the budget actually spent is surfaced
// in Stats.Retries and per-op OpStats.Retries.
//
// Retried requests may reach the server twice in the window where a
// connection dies after the request was applied but before the reply
// arrived, so callers must only enable retries for requests that are
// idempotent or duplicate-rejected (the dbwire protocol is both: reads
// are idempotent and commit sets are version-validated).
type RetryPolicy struct {
	MaxAttempts int
	Backoff     Backoff
}

// defaultRetryPolicy is the bounded, jittered schedule dbwire clients
// use: up to 4 attempts, waiting ~5ms, ~10ms, ~20ms between them.
func defaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5},
	}
}

// attempts normalizes the budget: at least one attempt.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}
