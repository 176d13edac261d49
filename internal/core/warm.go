package core

import (
	"sync"

	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

// warmRequest marks a frozen block (identified by any row_id it covers)
// for warming.
type warmRequest struct {
	t   *Tbl
	rid rel.RowID
}

// warmQueue is the engine's pending-warm set; reads enqueue, a maintenance
// slot drains (warming needs its own transaction and a read path cannot
// start one — a task slot runs one transaction at a time, §7.1).
type warmQueue struct {
	mu      sync.Mutex
	pending []warmRequest
	seen    map[*Tbl]map[rel.RowID]bool
}

func (q *warmQueue) push(t *Tbl, rid rel.RowID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.seen == nil {
		q.seen = make(map[*Tbl]map[rel.RowID]bool)
	}
	if q.seen[t] == nil {
		q.seen[t] = make(map[rel.RowID]bool)
	}
	if q.seen[t][rid] {
		return
	}
	q.seen[t][rid] = true
	q.pending = append(q.pending, warmRequest{t: t, rid: rid})
}

func (q *warmQueue) pop() (warmRequest, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return warmRequest{}, false
	}
	r := q.pending[0]
	q.pending = q.pending[1:]
	delete(q.seen[r.t], r.rid)
	return r, true
}

// requestWarm queues the frozen block covering rid for warming.
func (e *Engine) requestWarm(t *Tbl, rid rel.RowID) {
	e.warms.push(t, rid)
}

// ProcessWarmQueue warms pending frozen blocks (§5.2 case 3) on the given
// idle task slot: each block's surviving rows are tombstoned in the frozen
// layer and re-inserted into hot storage under a system transaction, with
// index entries repointed. Each block is warmed under sysMu (the DB runs
// warming on the system slot, where catalog records are logged). Returns
// the number of rows warmed.
func (e *Engine) ProcessWarmQueue(slot int) (int, error) {
	total := 0
	for {
		req, ok := e.warms.pop()
		if !ok {
			return total, nil
		}
		e.sysMu.Lock()
		n, err := e.warmBlock(slot, req)
		e.sysMu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
	}
}

// warmBlock warms the frozen block req names and returns the rows warmed.
func (e *Engine) warmBlock(slot int, req warmRequest) (int, error) {
	ids, rows, err := req.t.Frozen.ExtractLive(req.rid)
	if err != nil || len(ids) == 0 {
		return 0, err
	}
	tx := e.Begin(slot, txn.ReadCommitted, nil, nil, nil)
	for i, oldRID := range ids {
		tx.logUnstamped(wal.RecDelete, req.t.ID, oldRID, nil)
		if _, err := tx.insertRow(req.t, rows[i], oldRID); err != nil {
			// Roll back the inserts and restore the frozen tombstones.
			tx.Rollback()
			for _, id := range ids {
				req.t.Frozen.Undelete(id)
			}
			return 0, nil
		}
	}
	if err := tx.Commit(); err != nil {
		for _, id := range ids {
			req.t.Frozen.Undelete(id)
		}
		return 0, err
	}
	return len(ids), nil
}
