package component

import (
	"context"
	"errors"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// Entity is the contract entity implementations satisfy: identity plus
// memento round-tripping. Concrete entities are plain structs (see
// package trade); the container moves their state in and out of
// mementos, never serializing the entity itself — the same restriction
// the EJB specification imposes.
type Entity interface {
	// PrimaryKey returns the entity's identity (table + primary key).
	PrimaryKey() memento.Key
	// ToMemento snapshots the entity's state. The Version field is
	// managed by the runtime and may be left zero.
	ToMemento() memento.Memento
	// LoadMemento replaces the entity's state from a snapshot.
	LoadMemento(m memento.Memento) error
}

// Descriptor describes one entity type to the container.
type Descriptor struct {
	// Table is the persistent table backing the entity type.
	Table string
	// New allocates an empty entity, used to materialize finder results.
	New func() Entity
}

// Registry maps tables to entity descriptors.
type Registry struct {
	byTable map[string]Descriptor
}

// NewRegistry builds a registry from descriptors.
func NewRegistry(descs ...Descriptor) (*Registry, error) {
	r := &Registry{byTable: make(map[string]Descriptor, len(descs))}
	for _, d := range descs {
		if d.Table == "" || d.New == nil {
			return nil, fmt.Errorf("component: invalid descriptor for table %q", d.Table)
		}
		if _, dup := r.byTable[d.Table]; dup {
			return nil, fmt.Errorf("component: duplicate descriptor for table %q", d.Table)
		}
		r.byTable[d.Table] = d
	}
	return r, nil
}

// Lookup returns the descriptor for a table.
func (r *Registry) Lookup(table string) (Descriptor, error) {
	d, ok := r.byTable[table]
	if !ok {
		return Descriptor{}, fmt.Errorf("component: no descriptor for table %q", table)
	}
	return d, nil
}

// DataTx is one transaction's view of the datastore, as provided by a
// resource manager. Mementos returned by Load/Query carry the version
// bookkeeping the manager needs at commit time.
type DataTx interface {
	// Load fetches the current state of an entity.
	Load(ctx context.Context, key memento.Key) (memento.Memento, error)
	// Store registers an updated after-image for an entity.
	Store(ctx context.Context, m memento.Memento) error
	// Create registers a new entity.
	Create(ctx context.Context, m memento.Memento) error
	// Remove registers deletion of an entity.
	Remove(ctx context.Context, key memento.Key) error
	// Query runs a custom finder.
	Query(ctx context.Context, q memento.Query) ([]memento.Memento, error)
	// Commit makes the transaction durable or fails with a conflict.
	Commit(ctx context.Context) error
	// Abort abandons the transaction.
	Abort(ctx context.Context) error
}

// MultiLoader is an optional DataTx extension for managers that can
// load several entities in less time than one Load after another (the
// SLI cache overlaps its miss fetches on the high-latency path). Tx.Find
// asserts it the way the managers assert storeapi.BatchTxn; JDBC and BMP
// run every statement on one pinned stream and do not implement it.
type MultiLoader interface {
	// LoadMany fetches the current state of every key; the result is
	// index-aligned with keys, which may repeat. On failure it returns
	// the error of the first key, in argument order, that could not be
	// loaded.
	LoadMany(ctx context.Context, keys []memento.Key) ([]memento.Memento, error)
}

// ResourceManager begins data transactions.
type ResourceManager interface {
	// Begin starts a transaction.
	Begin(ctx context.Context) (DataTx, error)
}

// ManagerOption configures a resource manager (see WithBatching).
type ManagerOption func(*storeapi.Executor)

// WithBatching makes the manager ship the independent statements of one
// container operation as a single multi-statement exchange instead of
// one round trip each: the BMP finder+ejbLoad pair, a finder's N
// ejbLoads, and the write-back+commit run at the end of a transaction.
// Semantics are unchanged (statements still execute sequentially,
// stopping at the first failure); only the round-trip count drops. On
// by default; WithBatching(false) restores the paper's classic one
// round trip per statement (deploy.Paper()).
func WithBatching(on bool) ManagerOption {
	return func(x *storeapi.Executor) {
		if on {
			*x = storeapi.ExecBatch
		} else {
			*x = storeapi.ExecSerial
		}
	}
}

// newExecutor picks a manager's executor once, when it is built; every
// exchange of its transactions goes through it.
func newExecutor(opts []ManagerOption) storeapi.Executor {
	x := storeapi.Executor(storeapi.ExecBatch)
	for _, o := range opts {
		o(&x)
	}
	return x
}

// commit ends a transaction: the manager's write-back puts, then the
// commit, as one exchange (storeapi.Executor.Commit aborts unless the
// commit ran). A failed put is reported under what, the manager's name
// for its write-back, with the row's key.
func commit(ctx context.Context, x storeapi.Executor, txn storeapi.Txn, puts []storeapi.Stmt, what string) error {
	stmts := append(puts, storeapi.Stmt{Kind: storeapi.StmtCommit})
	_, at, err := x.Commit(ctx, txn, stmts)
	if at >= 0 && at < len(puts) {
		err = fmt.Errorf("%s %s: %w", what, stmts[at].Mem.Key, err)
	}
	return err
}

// ErrRollback can be returned by application functions to abort the
// transaction without surfacing an error from Execute.
var ErrRollback = errors.New("component: rollback requested")

// IsConflict reports whether an error is a serialization conflict — the
// signal that an optimistic transaction must be retried.
func IsConflict(err error) bool { return errors.Is(err, sqlstore.ErrConflict) }

// Container hosts entity types and brackets application logic in
// transactions, the role the EJB container plays for session and entity
// beans.
type Container struct {
	registry *Registry
	rm       ResourceManager
}

// NewContainer assembles a container.
func NewContainer(registry *Registry, rm ResourceManager) *Container {
	return &Container{registry: registry, rm: rm}
}

// Execute runs fn inside one transaction. The transaction commits when
// fn returns nil; any error aborts it. ErrRollback aborts silently. A
// panic in fn aborts the transaction before propagating — resource
// managers may pin a connection at Begin (the JDBC manager does), and
// an unwound transaction must not leak its pin.
func (c *Container) Execute(ctx context.Context, fn func(tx *Tx) error) error {
	dt, err := c.rm.Begin(ctx)
	if err != nil {
		return fmt.Errorf("component: begin: %w", err)
	}
	tx := &Tx{ctx: ctx, dt: dt, registry: c.registry}
	settled := false
	defer func() {
		if !settled {
			_ = dt.Abort(ctx)
		}
	}()
	if err := fn(tx); err != nil {
		settled = true
		_ = dt.Abort(ctx)
		if errors.Is(err, ErrRollback) {
			return nil
		}
		return err
	}
	settled = true
	if err := dt.Commit(ctx); err != nil {
		// A failed commit may leave the manager's transaction open (e.g.
		// a transport error before the commit round trip completed);
		// abort to release whatever it pinned.
		_ = dt.Abort(ctx)
		return err
	}
	return nil
}

// ExecuteRetry runs fn like Execute, retrying up to attempts times when
// the commit (or any statement) fails with an optimistic conflict. This
// is the standard client loop for the paper's optimistic isolation:
// "if another transaction modified the data ... t1 will be aborted".
func (c *Container) ExecuteRetry(ctx context.Context, attempts int, fn func(tx *Tx) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		err = c.Execute(ctx, fn)
		if err == nil || !IsConflict(err) {
			return err
		}
	}
	return fmt.Errorf("component: giving up after %d conflicting attempts: %w", attempts, err)
}

// Tx is the application-facing transaction handle.
type Tx struct {
	ctx      context.Context
	dt       DataTx
	registry *Registry
}

// Context returns the transaction's context.
func (tx *Tx) Context() context.Context { return tx.ctx }

// Find loads each entity identified by its PrimaryKey() into itself
// (findByPrimaryKey followed by ejbLoad, in EJB terms). Asking for
// several entities at once states that none of the lookups depends on
// another's result: a MultiLoader may then fetch them together, any
// other DataTx loads them one after the other in argument order. Either
// way Find returns the error of the first entity, in argument order,
// that could not be loaded.
func (tx *Tx) Find(es ...Entity) error {
	if ml, ok := tx.dt.(MultiLoader); ok && len(es) > 1 {
		keys := make([]memento.Key, len(es))
		for i, e := range es {
			keys[i] = e.PrimaryKey()
		}
		mems, err := ml.LoadMany(tx.ctx, keys)
		if err != nil {
			return err
		}
		for i, e := range es {
			if err := e.LoadMemento(mems[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range es {
		m, err := tx.dt.Load(tx.ctx, e.PrimaryKey())
		if err != nil {
			return err
		}
		if err := e.LoadMemento(m); err != nil {
			return err
		}
	}
	return nil
}

// Update registers e's current state as its after-image.
func (tx *Tx) Update(e Entity) error {
	return tx.dt.Store(tx.ctx, e.ToMemento())
}

// Create registers e as a newly created entity.
func (tx *Tx) Create(e Entity) error {
	return tx.dt.Create(tx.ctx, e.ToMemento())
}

// Remove registers deletion of the entity identified by e.PrimaryKey().
func (tx *Tx) Remove(e Entity) error {
	return tx.dt.Remove(tx.ctx, e.PrimaryKey())
}

// FindWhere runs a custom finder and materializes the resulting
// entities via the registry.
func (tx *Tx) FindWhere(q memento.Query) ([]Entity, error) {
	d, err := tx.registry.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	mems, err := tx.dt.Query(tx.ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]Entity, 0, len(mems))
	for _, m := range mems {
		e := d.New()
		if err := e.LoadMemento(m); err != nil {
			return nil, fmt.Errorf("component: materialize %s: %w", m.Key, err)
		}
		out = append(out, e)
	}
	return out, nil
}
