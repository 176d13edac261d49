package phoebedb

import (
	"fmt"
	"time"

	"phoebedb/internal/sched"
	"phoebedb/internal/sql"
	"phoebedb/internal/waitevent"
)

// This file is the SQL-session plumbing for the wire front end
// (internal/wire): a PoolSession runs a whole connection's statement
// stream on ONE co-routine pool task slot, so a session transaction can
// span many pipelined frames without a worker thread blocking on the
// network — an idle-in-transaction session parks its slot (Park, or the
// front end's own wait on the session's socket, bracketed by
// ClientWaitBegin/End) and its worker keeps executing other slots.

// NewPoolSession returns a session handle whose task is fn: every Submit
// runs fn(ps) once on a pool task slot. Unlike Execute, which runs exactly
// one transaction, fn may execute any number of statements and
// transactions before returning; the slot is released when fn returns. The
// handle is built once and reused — a front end keeps one per connection,
// so starting a task allocates nothing.
//
// Two rules come with the reuse. The owner must not Submit again before fn
// has stopped using ps (fn's last statement may be the one that lets the
// owner resubmit; nothing here touches ps after fn returns). And fn must
// not return with a transaction open: it would stay open on the slot, and
// the slot's next Begin panics on it.
func (db *DB) NewPoolSession(fn func(ps *PoolSession)) *PoolSession {
	ps := &PoolSession{db: db}
	ps.task = func(s *sched.Slot) {
		ps.slot = s
		fn(ps)
		s.BeforePark = nil // the session's park hook ends with its task
	}
	return ps
}

// Submit schedules the session's task on a pool task slot. Fails with
// sched.ErrStopped once the pool is stopping.
func (ps *PoolSession) Submit() error { return ps.db.pool.Submit(ps.task) }

// PoolSession is a multi-statement session bound to a pool task slot for
// the duration of one task. Not safe for concurrent use; while a task runs
// it lives on exactly one slot, and between tasks it holds no slot and no
// transaction.
type PoolSession struct {
	db   *DB
	task sched.Task
	slot *sched.Slot
	tx   *Tx
}

// BeforePark registers fn to run each time a statement of this session is
// about to park its slot (a tuple-lock wait): the front end's chance to
// send what it has been holding back for a batch. The registration ends
// with the session task.
func (ps *PoolSession) BeforePark(fn func()) { ps.slot.BeforePark = fn }

// Slot returns the session's task-slot ID.
func (ps *PoolSession) Slot() int { return ps.slot.ID }

// InTxn reports whether an explicit transaction is open.
func (ps *PoolSession) InTxn() bool { return ps.tx != nil }

// Begin opens an explicit transaction on the session's slot. It fails if
// one is already open.
func (ps *PoolSession) Begin(iso Isolation) error {
	if ps.tx != nil {
		return fmt.Errorf("phoebedb: transaction already in progress")
	}
	ps.tx = ps.db.engine.Begin(ps.slot.ID, iso, ps.slot.Metrics, ps.slot.Yield, ps.slot.Wait)
	return nil
}

// Commit commits the open transaction.
func (ps *PoolSession) Commit() error {
	if ps.tx == nil {
		return fmt.Errorf("phoebedb: no transaction in progress")
	}
	tx := ps.tx
	ps.tx = nil
	return tx.Commit()
}

// Rollback aborts the open transaction.
func (ps *PoolSession) Rollback() error {
	if ps.tx == nil {
		return fmt.Errorf("phoebedb: no transaction in progress")
	}
	ps.tx.Rollback()
	ps.tx = nil
	return nil
}

// ExecSQL executes one DML statement, sending a SELECT's rows to sink as
// the scan produces them and returning the rows returned or affected.
// Inside an explicit transaction the statement joins it; otherwise it runs
// as its own auto-commit transaction on the session's slot. DDL is rejected
// — the wire layer routes DDL through DB.ExecSQL instead. query is only
// read during the call, never retained.
func (ps *PoolSession) ExecSQL(query string, sink sql.RowSink) (int, error) {
	if ps.tx != nil {
		return ps.db.execTx(ps.tx, query, sink)
	}
	tx := ps.db.engine.Begin(ps.slot.ID, ReadCommitted, ps.slot.Metrics, ps.slot.Yield, ps.slot.Wait)
	n, err := ps.db.execTx(tx, query, sink)
	if err != nil {
		tx.Rollback()
		return n, err
	}
	return n, tx.Commit()
}

// Park blocks the session until ch fires or the timeout elapses (false on
// timeout), releasing the slot's worker to run its other slots — this is
// how an idle-in-transaction connection costs a parked co-routine rather
// than a blocked thread. The off-CPU time is charged to the "server" wait
// event.
func (ps *PoolSession) Park(ch <-chan struct{}, timeout time.Duration) bool {
	start := ps.ClientWaitBegin()
	ok := ps.slot.YieldLow(ch, timeout)
	ps.ClientWaitEnd(start)
	return ok
}

// ClientWaitBegin stamps the session's slot as waiting on its client — the
// "server" wait event — for Park, and for a wait the front end makes
// itself (a session parked on its own socket). Pass the returned start to
// ClientWaitEnd.
func (ps *PoolSession) ClientWaitBegin() time.Time {
	return ps.db.waits.Begin(ps.slot.ID, waitevent.EvServer)
}

// ClientWaitEnd closes a ClientWaitBegin wait, charging its time.
func (ps *PoolSession) ClientWaitEnd(start time.Time) {
	ps.db.waits.End(ps.slot.ID, waitevent.EvServer, start)
}

// ChargeQueueWait attributes an admission-queue wait (measured by the
// server front end before the statement reached this slot) to the
// "server" wait event.
func (ps *PoolSession) ChargeQueueWait(d time.Duration) {
	ps.db.waits.Charge(ps.slot.ID, waitevent.EvServer, d)
}

// PoolSlots returns the number of co-routine pool task slots (workers ×
// slots-per-worker, excluding reserved session and system slots) — the
// ceiling a server front end should size its admission control against.
func (db *DB) PoolSlots() int { return db.pool.NumSlots() }
