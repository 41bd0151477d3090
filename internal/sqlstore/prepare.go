package sqlstore

import (
	"context"
	"fmt"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// Two-phase commit participant state. A cross-shard commit set is split
// by the edge coordinator into per-shard sub-sets; each participating
// store validates its sub-set under Prepare and HOLDS the validating
// transaction — and therefore its locks — until the coordinator's
// decision arrives as CommitPrepared or AbortPrepared. Holding the
// locks is what makes the prepared state a promise: no concurrent
// commit can invalidate a prepared read or overwrite a prepared write,
// so a yes vote stays honorable for as long as the entry lives.
//
// Presumed abort: every prepared entry carries a deadline. If the
// coordinator dies between prepare and decision, the entry's timer
// aborts the held transaction, releasing its locks — a dead coordinator
// can wedge a shard for at most the TTL. A CommitPrepared arriving
// after the timer fired finds no entry and reports a conflict, which
// the coordinator surfaces as a heuristic outcome (see shard.Router).

// preparedTx is one in-doubt transaction held between the phases.
type preparedTx struct {
	tx    *Tx
	timer *time.Timer
}

// WithPrepareTTL sets how long a prepared transaction may stay in doubt
// before presumed abort releases its locks. The default is 10 seconds —
// long enough for any live coordinator's second phase, short enough
// that a dead one cannot wedge a shard noticeably.
func WithPrepareTTL(d time.Duration) Option { return prepareTTLOption(d) }

type prepareTTLOption time.Duration

func (o prepareTTLOption) apply(c *config) { c.prepareTTL = time.Duration(o) }

// Prepare validates a commit sub-set exactly as ApplyCommitSet would,
// but instead of committing it parks the validating transaction under
// gid with its locks held, awaiting the coordinator's decision. A
// validation failure (or a lock wait against another in-flight
// transaction) aborts immediately and returns the conflict; nothing is
// parked. Preparing a gid that is already prepared is a conflict — the
// coordinator never reuses identifiers, so a duplicate means a retried
// frame whose original is still in doubt.
func (s *Store) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.prepare")
	defer sp.End()
	if gid == "" {
		return fmt.Errorf("sqlstore: prepare with empty gid")
	}
	tx, err := s.begin(ctx, cs.Origin)
	if err != nil {
		return err
	}
	if err := s.stage(ctx, tx, cs); err != nil {
		tx.Abort()
		s.stats.optFail.Add(1)
		return err
	}
	s.serveCommit()

	s.prepMu.Lock()
	if s.prepared == nil {
		s.prepared = make(map[string]*preparedTx)
	}
	if _, dup := s.prepared[gid]; dup {
		s.prepMu.Unlock()
		tx.Abort()
		return fmt.Errorf("%w: gid %q already prepared", ErrConflict, gid)
	}
	entry := &preparedTx{tx: tx}
	entry.timer = time.AfterFunc(s.prepareTTL, func() { s.presumeAbort(gid) })
	s.prepared[gid] = entry
	s.prepMu.Unlock()
	return nil
}

// CommitPrepared applies a prepared transaction: the parked writes are
// installed as one commit, the invalidation notice broadcast, and locks
// released. The result carries the commit's Seq only: the coordinator
// holds the sub-set and rebuilds NewVersions with Applied. If the gid
// is unknown — never prepared here, already decided, or expired by
// presumed abort — the error matches ErrConflict so the coordinator can
// tell the participant did not (and now never will) commit.
func (s *Store) CommitPrepared(ctx context.Context, gid string) (ApplyResult, error) {
	_, sp := obs.StartSpan(ctx, "sqlstore.commit_prepared")
	defer sp.End()
	entry, err := s.takePrepared(gid)
	if err != nil {
		return ApplyResult{}, err
	}
	if err := entry.tx.Commit(); err != nil {
		return ApplyResult{}, err
	}
	s.stats.optOK.Add(1)
	return ApplyResult{Seq: entry.tx.Seq()}, nil
}

// AbortPrepared discards a prepared transaction and releases its locks.
// Aborting an unknown gid is a no-op success: the entry may already
// have expired into the same outcome via presumed abort, and the
// coordinator's abort fan-out must be idempotent.
func (s *Store) AbortPrepared(ctx context.Context, gid string) error {
	_, sp := obs.StartSpan(ctx, "sqlstore.abort_prepared")
	defer sp.End()
	entry, err := s.takePrepared(gid)
	if err != nil {
		return nil
	}
	entry.tx.Abort()
	return nil
}

// PreparedCount returns the number of transactions currently in doubt
// (tests and the debug endpoint).
func (s *Store) PreparedCount() int {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return len(s.prepared)
}

// takePrepared removes and returns the entry for gid, stopping its
// presumed-abort timer.
func (s *Store) takePrepared(gid string) (*preparedTx, error) {
	s.prepMu.Lock()
	entry, ok := s.prepared[gid]
	if ok {
		delete(s.prepared, gid)
	}
	s.prepMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: gid %q not prepared (expired or already decided)", ErrConflict, gid)
	}
	entry.timer.Stop()
	return entry, nil
}

// presumeAbort is the prepared entry's deadline firing: the coordinator
// has not decided within the TTL, so the participant unilaterally
// aborts and releases its locks.
func (s *Store) presumeAbort(gid string) {
	entry, err := s.takePrepared(gid)
	if err != nil {
		return // decided concurrently; the timer lost the race
	}
	entry.tx.Abort()
	obs.DefaultEvents.Emit(obs.Event{
		Type:   obs.EventTwoPC,
		Detail: fmt.Sprintf("presumed abort of %s after %s in doubt", gid, s.prepareTTL),
	})
}

// abortAllPrepared releases every in-doubt transaction (store close).
func (s *Store) abortAllPrepared() {
	s.prepMu.Lock()
	entries := s.prepared
	s.prepared = nil
	s.prepMu.Unlock()
	for _, e := range entries {
		e.timer.Stop()
		e.tx.Abort()
	}
}

// serveCommit models the datacenter commit processor's validation
// service time: each commit set occupies the (serial) processor for the
// configured duration before its outcome is final. Zero — the default —
// is a no-op. The shard-scaling experiment sets it so per-shard commit
// capacity reflects an N-core datacenter rather than the test host's
// core count; see EXPERIMENTS.md.
func (s *Store) serveCommit() {
	if s.commitService <= 0 {
		return
	}
	s.serviceMu.Lock()
	time.Sleep(s.commitService)
	s.serviceMu.Unlock()
}

// WithCommitServiceTime sets the modeled per-commit-set validation
// service time (default 0 = disabled). It is an emulation knob in the
// same family as the harness's one-way WAN delay: it stands in for the
// datacenter database's bounded commit-processing capacity, which is
// the resource sharding multiplies.
func WithCommitServiceTime(d time.Duration) Option { return commitServiceOption(d) }

type commitServiceOption time.Duration

func (o commitServiceOption) apply(c *config) { c.commitService = time.Duration(o) }
