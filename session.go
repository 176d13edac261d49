package phoebedb

import (
	"fmt"
	"time"

	"phoebedb/internal/sched"
	"phoebedb/internal/waitevent"
)

// This file is the SQL-session plumbing for the wire front end
// (internal/wire): a PoolSession runs a whole connection's statement
// stream on ONE co-routine pool task slot, so a session transaction can
// span many pipelined frames without a worker thread blocking on the
// network — an idle-in-transaction session parks its slot (YieldLow) and
// its worker keeps executing other slots.

// SubmitSessionTask schedules fn on a pool task slot. Unlike Execute,
// which runs exactly one transaction, fn receives a PoolSession and may
// execute any number of statements and transactions before returning;
// the slot is released when fn returns. Fails with sched.ErrStopped once
// the pool is stopping.
func (db *DB) SubmitSessionTask(fn func(ps *PoolSession)) error {
	return db.pool.Submit(func(s *sched.Slot) {
		ps := &PoolSession{db: db, slot: s}
		defer ps.abandon()
		fn(ps)
	})
}

// PoolSession is a multi-statement session bound to a pool task slot for
// the duration of one SubmitSessionTask callback. Not safe for concurrent
// use; it lives on exactly one slot and must not escape the callback.
type PoolSession struct {
	db   *DB
	slot *sched.Slot
	tx   *Tx
}

// BeforePark registers fn to run each time a statement of this session is
// about to park its slot (a tuple-lock wait): the front end's chance to
// send what it has been holding back for a batch. The registration ends
// with the session task.
func (ps *PoolSession) BeforePark(fn func()) { ps.slot.BeforePark = fn }

// abandon rolls back a transaction the callback left open — the slot is
// being returned to the pool and must not leak an in-flight transaction
// or the session's park hook.
func (ps *PoolSession) abandon() {
	if ps.tx != nil {
		ps.tx.Rollback()
		ps.tx = nil
	}
	ps.slot.BeforePark = nil
}

// Slot returns the session's task-slot ID.
func (ps *PoolSession) Slot() int { return ps.slot.ID }

// InTxn reports whether an explicit transaction is open.
func (ps *PoolSession) InTxn() bool { return ps.tx != nil }

// DefaultIsolation returns the database's configured default level.
func (ps *PoolSession) DefaultIsolation() Isolation { return ps.db.opts.Isolation }

// Begin opens an explicit transaction on the session's slot. It fails if
// one is already open.
func (ps *PoolSession) Begin(iso Isolation) error {
	if ps.tx != nil {
		return fmt.Errorf("phoebedb: transaction already in progress")
	}
	ps.tx = ps.db.engine.Begin(ps.slot.ID, iso, ps.slot.Metrics, ps.slot.YieldHigh, ps.slot.YieldLow)
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

// ExecSQL executes one DML statement. Inside an explicit transaction the
// statement joins it; otherwise it runs as its own auto-commit
// transaction on the session's slot. DDL is rejected — the wire layer
// routes DDL through DB.ExecSQL (plus the schema journal) instead.
func (ps *PoolSession) ExecSQL(query string) (SQLResult, error) {
	if ps.tx != nil {
		return ps.db.ExecSQLTx(ps.tx, query)
	}
	tx := ps.db.engine.Begin(ps.slot.ID, ps.db.opts.Isolation, ps.slot.Metrics, ps.slot.YieldHigh, ps.slot.YieldLow)
	res, err := ps.db.ExecSQLTx(tx, query)
	if err != nil {
		tx.Rollback()
		return res, err
	}
	return res, tx.Commit()
}

// Park blocks the session until ch fires or the timeout elapses (false on
// timeout), releasing the slot's worker to run its other slots — this is
// how an idle-in-transaction connection costs a parked co-routine rather
// than a blocked thread. The off-CPU time is charged to the "server" wait
// event.
func (ps *PoolSession) Park(ch <-chan struct{}, timeout time.Duration) bool {
	start := ps.db.waits.Begin(ps.slot.ID, waitevent.EvServer)
	ok := ps.slot.YieldLow(ch, timeout)
	ps.db.waits.End(ps.slot.ID, waitevent.EvServer, start)
	return ok
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
