package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// One Tx per slot, reset in place by Begin: what the reuse must cost
// (nothing, for a transaction that writes nothing) and what it must not
// change (a finished handle stays finished; a slot runs one transaction at
// a time; a writer's TxnMeta outlives the slot's next Begin).

// A read-only transaction — Begin, a point read, Commit — allocates
// nothing: no Tx, no txn.Txn, no TxnMeta or done channel, no metrics block,
// no wait closure. On the wire an autocommit SELECT is exactly this.
func TestAllocBeginCommitReadOnly(t *testing.T) {
	e := openTestEngine(t, Config{})
	rids := setupReadAlloc(t, e, 8)
	run := func() {
		tx := begin(e, 1) // the nil-mets, nil-yield, nil-waitLow path
		if _, ok, err := tx.Get("accounts", rids[0]); err != nil || !ok {
			t.Fatalf("read: ok=%v err=%v", ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run() // the slot's metrics block and scratch rows are made once
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("read-only Begin+Get+Commit allocates %.2f per transaction, want 0", allocs)
	}
	tx := begin(e, 1)
	if tx.inner.Meta != nil {
		t.Fatal("a transaction that wrote nothing has a TxnMeta")
	}
	tx.Rollback()
}

func TestFinishedHandleAndOpenSlot(t *testing.T) {
	e := openTestEngine(t, Config{})
	rids := setupReadAlloc(t, e, 2)

	tx := begin(e, 2)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The handle is the slot's Tx; finished means finished for all of it.
	if _, _, err := tx.Get("accounts", rids[0]); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Get after Commit: %v, want ErrTxnDone", err)
	}
	if _, err := tx.Insert("accounts", acct(99, "late", 1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Insert after Commit: %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit: %v, want ErrTxnDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Rollback after Commit: %v, want ErrTxnDone", err)
	}

	// A slot runs one transaction at a time: Begin over an open one is a
	// caller bug, and says so.
	open := begin(e, 2)
	defer open.Rollback()
	defer func() {
		if recover() == nil {
			t.Fatal("Begin on a slot whose transaction is still open did not panic")
		}
	}()
	begin(e, 2)
}

// A writer's TxnMeta must stay resolvable for as long as a version points
// at it, which is longer than the slot's Tx stays the writer's: a reader
// holding an old snapshot walks the chain, and a writer blocked on the
// transaction-ID lock waits on the old meta's channel, after the slot has
// moved on to its next transactions.
func TestTxnMetaOutlivesSlotReuse(t *testing.T) {
	e := openTestEngine(t, Config{})
	rids := setupReadAlloc(t, e, 1)
	rid := rids[0]

	// An old repeatable-read snapshot that must keep seeing balance 0.
	reader := e.Begin(3, txn.RepeatableRead, nil, nil, nil)
	if row, ok, err := reader.Get("accounts", rid); err != nil || !ok || row[2].F != 0 {
		t.Fatalf("reader's first look: %v %v %v", row, ok, err)
	}

	// Slot 4 updates and commits, then runs many more transactions — each
	// resets the same Tx and, when it writes, makes a fresh meta.
	w := begin(e, 4)
	if err := w.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(1)}); err != nil {
		t.Fatal(err)
	}
	firstMeta := w.inner.Meta
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the reader walks the chain while the slot is being reused
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			row, ok, err := reader.Get("accounts", rid)
			if err != nil || !ok || row[2].F != 0 {
				t.Errorf("old snapshot sees %v (ok=%v err=%v), want balance 0", row, ok, err)
				return
			}
		}
	}()
	for i := 2; i < 200; i++ {
		w = begin(e, 4)
		if i%2 == 0 {
			if err := w.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(float64(i))}); err != nil {
				t.Fatal(err)
			}
			if w.inner.Meta == firstMeta {
				t.Fatal("a later transaction reused an earlier writer's TxnMeta")
			}
		} else if _, _, err := w.Get("accounts", rid); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if firstMeta.XID == w.XID() {
		t.Fatal("first writer's meta took a later transaction's XID")
	}
	select {
	case <-firstMeta.Done():
	case <-time.After(time.Second):
		t.Fatal("the first writer's transaction-ID lock was never released")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}
