package core

import (
	"sync"
	"testing"
	"time"

	"phoebedb/internal/rel"
)

// A deleter holds its page's latch while it appends an UNDO record to its
// slot's arena; GC erases reclaimed tombstones under that same latch. The
// arena must therefore not hold its mutex across the reclaim callback:
// when it did, a delete and a GC round on one page deadlocked (the tier-1
// hang of TestDifferentialOracle and of the since-retired scaling gate).
func TestDeleteConcurrentWithGCOnOnePage(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	const rows = 400 // a few pages; every delete lands beside a tombstone GC wants
	rids := make([]rel.RowID, rows)
	w := begin(e, 0)
	for i := range rids {
		rid, err := w.Insert("accounts", acct(i, "owner", 1))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var gc sync.WaitGroup
	gc.Add(1)
	go func() {
		defer gc.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.CollectGarbage()
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for _, rid := range rids {
			d := begin(e, 0)
			if err := d.Delete("accounts", rid); err != nil {
				done <- err
				return
			}
			if err := d.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		close(stop)
		gc.Wait()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delete and GC deadlocked on the arena mutex and a page latch")
	}
	e.CollectGarbage()
	tbl, _ := e.Table("accounts")
	if n := tbl.Index("accounts_pk").Tree.Len(); n != 0 {
		t.Fatalf("%d index entries survive GC of %d deleted rows", n, rows)
	}
	if live := e.Mgr.LiveUndo(); live != 0 {
		t.Fatalf("%d UNDO records left after a quiescent GC round", live)
	}
}

// GC reclaims a rolled-back delete's UNDO record at once. That record must
// erase nothing: the tombstone the row carries by then is a later delete's,
// still in flight, and rolling that one back must find the row in place.
func TestRolledBackDeleteLeavesLaterTombstone(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, err := w.Insert("accounts", acct(1, "o", 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	e.CollectGarbage()
	a := begin(e, 1)
	if err := a.Delete("accounts", rid); err != nil {
		t.Fatal(err)
	}
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}
	b := begin(e, 2)
	if err := b.Delete("accounts", rid); err != nil {
		t.Fatal(err)
	}
	e.CollectGarbage() // reclaims a's dead delete record while b's is live
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
	r := begin(e, 3)
	defer r.Rollback()
	if row, ok, err := r.Get("accounts", rid); err != nil || !ok || row[0].I != 1 {
		t.Fatalf("after both deletes rolled back: Get = (%v, %v, %v), want id 1", row, ok, err)
	}
}
