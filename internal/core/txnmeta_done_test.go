package core

import (
	"testing"
	"time"

	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
	"phoebedb/internal/undo"
)

// A transaction's done channel is made by its first waiter (undo.TxnMeta).
// These tests park on a writer through both of the engine's waits and
// check that its finish wakes them.

// TestTxnMetaDoneWakesTupleLockWaiter: a second writer of a row parks on
// the first writer's transaction-ID lock; the first one's commit, and in
// a second round its rollback, wakes it.
func TestTxnMetaDoneWakesTupleLockWaiter(t *testing.T) {
	e := openTestEngine(t, Config{LockTimeout: 10 * time.Second})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for round, commit := range []bool{true, false} {
		first := begin(e, 0)
		if err := first.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(1)}); err != nil {
			t.Fatal(err)
		}
		waits := e.Stats().TupleLockWaits.Load()
		done := make(chan error, 1)
		go func() {
			second := begin(e, 1)
			if err := second.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(float64(round + 2))}); err != nil {
				second.Rollback()
				done <- err
				return
			}
			done <- second.Commit()
		}()
		awaitWaiter(t, &e.Stats().TupleLockWaits, waits, done)
		if commit {
			first.Commit()
		} else {
			first.Rollback()
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the waiter was not woken", round)
		}
	}
	r := begin(e, 2)
	defer r.Rollback()
	if row, _, _ := r.Get("accounts", rid); row[2].F != 3 {
		t.Fatalf("final balance = %v, want 3", row[2])
	}
}

// TestTxnMetaDoneWakesCommitDep: a read whose snapshot is at or above a
// Preparing writer's commit timestamp parks on the writer (commit_dep)
// until the commit record is durable, then sees the new version.
func TestTxnMetaDoneWakesCommitDep(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	e := openTestEngine(t, Config{LockTimeout: 10 * time.Second})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Hold the writer's commit between drawing its timestamp and its
	// WAL sync.
	if err := fault.Enable(fault.WALPreSync, "sleep(200ms)"); err != nil {
		t.Fatal(err)
	}
	writer := begin(e, 0)
	if err := writer.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(7)}); err != nil {
		t.Fatal(err)
	}
	meta := writer.inner.Meta
	committed := make(chan error, 1)
	go func() { committed <- writer.Commit() }()
	for meta.Status() != undo.StatusPreparing || meta.CTS() == 0 {
		select {
		case err := <-committed:
			t.Fatalf("commit finished before a reader arrived: %v", err)
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}

	deps := e.Stats().CommitDepWaits.Load()
	read := make(chan error, 1)
	var bal float64
	go func() {
		r := begin(e, 1)
		defer r.Rollback()
		row, ok, err := r.Get("accounts", rid)
		if err == nil && ok {
			bal = row[2].F
		}
		read <- err
	}()
	awaitWaiter(t, &e.Stats().CommitDepWaits, deps, read)
	for _, ch := range []chan error{committed, read} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the commit or the parked read never finished")
		}
	}
	if bal != 7 {
		t.Fatalf("parked read saw balance %v, want the committed 7", bal)
	}
}
