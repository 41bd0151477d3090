package component

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/storeapi"
)

// BMPManager is the "vanilla EJB" algorithm: non-cached entity beans
// with bean-managed persistence, as in Trade2's EJB-ALT mode. It is
// deliberately faithful to the classic BMP container behaviors that make
// the paper's vanilla-EJB curve the most latency-sensitive one
// (sensitivity 23.6 in ES/RDB):
//
//   - findByPrimaryKey performs its own existence query, and the
//     container then issues a separate ejbLoad before the first business
//     method — "BMP EJBs have difficulty caching the results of a
//     findByPrimaryKey operation, even though such results are typically
//     reused immediately" (§4.4). Two round trips per direct access.
//   - Custom finders return primary keys only; the container then
//     ejbLoads each result element individually (the classic N+1
//     selects).
//   - At commit the container calls ejbStore on every activated bean,
//     clean or dirty, because BMP gives it no dirty-tracking.
type BMPManager struct {
	conn storeapi.Conn
	exec storeapi.Executor
}

var _ ResourceManager = (*BMPManager)(nil)

// NewBMPManager builds a vanilla-EJB resource manager over a datastore
// handle (local or remote).
func NewBMPManager(conn storeapi.Conn, opts ...ManagerOption) *BMPManager {
	return &BMPManager{conn: conn, exec: newExecutor(opts)}
}

// Begin implements ResourceManager.
func (m *BMPManager) Begin(ctx context.Context) (DataTx, error) {
	txn, err := m.conn.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &bmpTx{
		txn:       txn,
		exec:      m.exec,
		activated: make(map[memento.Key]memento.Memento),
		removed:   make(map[memento.Key]struct{}),
	}, nil
}

type bmpTx struct {
	txn  storeapi.Txn
	exec storeapi.Executor
	// activated tracks beans activated in this transaction; each gets an
	// unconditional ejbStore at commit.
	activated map[memento.Key]memento.Memento
	removed   map[memento.Key]struct{}
}

func (t *bmpTx) Load(ctx context.Context, key memento.Key) (memento.Memento, error) {
	// findByPrimaryKey's existence check (SELECT pk FROM ... WHERE pk=?),
	// then ejbLoad: the container reloads the full row even though the
	// finder just touched it. It cannot skip either statement; whether
	// they travel together is the executor's business.
	get := storeapi.Stmt{Kind: storeapi.StmtGet, Table: key.Table, ID: key.ID}
	results, _, err := t.exec.Run(ctx, t.txn, []storeapi.Stmt{get, get})
	if err != nil {
		return memento.Memento{}, err
	}
	m := results[1].Get.Mem
	t.activated[key] = m.Clone()
	delete(t.removed, key)
	return m, nil
}

func (t *bmpTx) Store(ctx context.Context, m memento.Memento) error {
	// BMP defers the actual UPDATE to ejbStore at commit; the container
	// only records the new state here.
	t.activated[m.Key] = m.Clone()
	return nil
}

func (t *bmpTx) Create(ctx context.Context, m memento.Memento) error {
	// ejbCreate issues the INSERT immediately.
	if err := t.txn.Insert(ctx, m); err != nil {
		return err
	}
	t.activated[m.Key] = m.Clone()
	delete(t.removed, m.Key)
	return nil
}

func (t *bmpTx) Remove(ctx context.Context, key memento.Key) error {
	// ejbRemove issues the DELETE immediately.
	if err := t.txn.Delete(ctx, key.Table, key.ID); err != nil {
		return err
	}
	delete(t.activated, key)
	t.removed[key] = struct{}{}
	return nil
}

func (t *bmpTx) Query(ctx context.Context, q memento.Query) ([]memento.Memento, error) {
	// The custom finder returns primary keys; the container then
	// activates (ejbLoads) each element of the result set individually —
	// the N+1 selects, whichever way the N travel.
	found, err := t.txn.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	stmts := make([]storeapi.Stmt, len(found.Mems))
	for i, f := range found.Mems {
		stmts[i] = storeapi.Stmt{Kind: storeapi.StmtGet, Table: f.Key.Table, ID: f.Key.ID}
	}
	results, at, err := t.exec.Run(ctx, t.txn, stmts)
	if at >= 0 {
		// The beans loaded before the failing one stay activated.
		results, err = results[:at], fmt.Errorf("bmp: ejbLoad after finder %s: %w", found.Mems[at].Key, err)
	}
	out := make([]memento.Memento, 0, len(results))
	for _, r := range results {
		t.activated[r.Get.Mem.Key] = r.Get.Mem.Clone()
		out = append(out, r.Get.Mem)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (t *bmpTx) Commit(ctx context.Context) error {
	// ejbStore every activated bean, dirty or not.
	puts := make([]storeapi.Stmt, 0, len(t.activated)+1)
	for _, m := range t.activated {
		if _, gone := t.removed[m.Key]; gone {
			continue
		}
		puts = append(puts, storeapi.Stmt{Kind: storeapi.StmtPut, Mem: m})
	}
	return commit(ctx, t.exec, t.txn, puts, "bmp: ejbStore")
}

func (t *bmpTx) Abort(ctx context.Context) error {
	return t.txn.Abort(ctx)
}
