package replica

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

func accountSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "owner", Type: rel.TString},
		rel.Column{Name: "balance", Type: rel.TFloat64},
	)
}

func declare(t *testing.T, e *core.Engine) {
	t.Helper()
	if _, err := e.CreateTable("accounts", accountSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
}

// pair builds a primary engine and a standby tailing its WAL.
func pair(t *testing.T) (*core.Engine, *Standby) {
	t.Helper()
	pdir := t.TempDir()
	primary, err := core.Open(core.Config{Dir: pdir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	declare(t, primary)

	sEng, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sEng.Close() })
	declare(t, sEng)
	return primary, NewStandby(sEng, primary.WAL.Dir())
}

// logged counts the records in e's log that match.
func logged(t *testing.T, e *core.Engine, match func(wal.Record) bool) int {
	t.Helper()
	recs, err := wal.Recover(e.WAL.Dir())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if match(r) {
			n++
		}
	}
	return n
}

func commitTx(t *testing.T, e *core.Engine, slot int, fn func(tx *core.Tx) error) {
	t.Helper()
	tx := e.Begin(slot, txn.ReadCommitted, nil, nil, nil)
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func standbyRead(t *testing.T, s *Standby, id int64) (rel.Row, bool) {
	t.Helper()
	tx := s.Engine.Begin(3, txn.ReadCommitted, nil, nil, nil)
	defer tx.Rollback()
	_, row, found, err := tx.GetByIndex("accounts", "accounts_pk", rel.Int(id))
	if err != nil {
		t.Fatal(err)
	}
	return row, found
}

func TestShippingBasic(t *testing.T) {
	primary, standby := pair(t)
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		for i := 1; i <= 5; i++ {
			if _, err := tx.Insert("accounts", rel.Row{rel.Int(int64(i)), rel.Str("a"), rel.Float(float64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	n, err := standby.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("applied %d records, want 5", n)
	}
	for i := int64(1); i <= 5; i++ {
		row, found := standbyRead(t, standby, i)
		if !found || row[2].F != float64(i) {
			t.Fatalf("standby row %d = (%v,%v)", i, row, found)
		}
	}
}

func TestShippingUpdatesAndDeletes(t *testing.T) {
	primary, standby := pair(t)
	var rid1, rid2 rel.RowID
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		var err error
		rid1, err = tx.Insert("accounts", rel.Row{rel.Int(1), rel.Str("a"), rel.Float(10)})
		if err != nil {
			return err
		}
		rid2, err = tx.Insert("accounts", rel.Row{rel.Int(2), rel.Str("b"), rel.Float(20)})
		return err
	})
	standby.CatchUp()
	commitTx(t, primary, 1, func(tx *core.Tx) error {
		if err := tx.Update("accounts", rid1, map[string]rel.Value{"balance": rel.Float(99)}); err != nil {
			return err
		}
		return tx.Delete("accounts", rid2)
	})
	if _, err := standby.CatchUp(); err != nil {
		t.Fatal(err)
	}
	row, found := standbyRead(t, standby, 1)
	if !found || row[2].F != 99 {
		t.Fatalf("updated row = (%v,%v)", row, found)
	}
	if _, found := standbyRead(t, standby, 2); found {
		t.Fatal("deleted row still on standby")
	}
}

func TestShippingSkipsUncommittedAndAborted(t *testing.T) {
	primary, standby := pair(t)
	// An aborted transaction's records must never apply.
	tx := primary.Begin(0, txn.ReadCommitted, nil, nil, nil)
	tx.Insert("accounts", rel.Row{rel.Int(7), rel.Str("ghost"), rel.Float(0)})
	tx.Rollback()
	primary.WAL.FlushAll()
	// An in-flight transaction's records must stay pending.
	open := primary.Begin(1, txn.ReadCommitted, nil, nil, nil)
	open.Insert("accounts", rel.Row{rel.Int(8), rel.Str("pending"), rel.Float(0)})
	primary.WAL.FlushAll()
	// Neither reaches the primary's log: a flush writes committed records
	// only, and a rollback discards its own.
	if n := logged(t, primary, func(r wal.Record) bool {
		return r.XID == tx.XID() || r.XID == open.XID() || r.Type == wal.RecAbort
	}); n != 0 {
		t.Fatalf("the primary's log holds %d records of the rolled-back or open transaction", n)
	}

	if _, err := standby.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, found := standbyRead(t, standby, 7); found {
		t.Fatal("aborted insert applied")
	}
	if _, found := standbyRead(t, standby, 8); found {
		t.Fatal("uncommitted insert applied")
	}
	// Once it commits, the next round applies it.
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, found := standbyRead(t, standby, 8); !found {
		t.Fatal("late commit not applied")
	}
}

func TestShippingConcurrentPrimaryLoad(t *testing.T) {
	primary, standby := pair(t)
	stop := make(chan struct{})
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = standby.Run(stop, 5*time.Millisecond)
	}()
	// Concurrent writers on different slots.
	const writers = 3
	const per = 40
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < per; i++ {
				id := int64(w*1000 + i)
				commitTx(t, primary, w, func(tx *core.Tx) error {
					_, err := tx.Insert("accounts", rel.Row{rel.Int(id), rel.Str("c"), rel.Float(1)})
					return err
				})
			}
		}(w)
	}
	wwg.Wait()
	// Let the standby drain, then stop it.
	for i := 0; i < 100; i++ {
		if standby.Applied() >= writers*per {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if standby.Applied() < writers*per {
		t.Fatalf("applied %d, want >= %d", standby.Applied(), writers*per)
	}
	// Verify the standby matches the primary.
	tx := standby.Engine.Begin(3, txn.ReadCommitted, nil, nil, nil)
	defer tx.Rollback()
	count := 0
	tx.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != writers*per {
		t.Fatalf("standby rows = %d, want %d", count, writers*per)
	}
}

func TestPromote(t *testing.T) {
	primary, standby := pair(t)
	var rid rel.RowID
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert("accounts", rel.Row{rel.Int(1), rel.Str("a"), rel.Float(10)})
		return err
	})
	if err := standby.Promote(); err != nil {
		t.Fatal(err)
	}
	// The promoted standby accepts writes.
	commitTx(t, standby.Engine, 0, func(tx *core.Tx) error {
		return tx.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(42)})
	})
	row, found := standbyRead(t, standby, 1)
	if !found || row[2].F != 42 {
		t.Fatalf("post-promotion write = (%v,%v)", row, found)
	}
	// Further catch-up is refused.
	if _, err := standby.CatchUp(); err == nil {
		t.Fatal("catch-up allowed after promotion")
	}
}

func TestShippingSameRowSerialization(t *testing.T) {
	// Conflicting updates from different slots must land in commit order.
	primary, standby := pair(t)
	var rid rel.RowID
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		var err error
		rid, err = tx.Insert("accounts", rel.Row{rel.Int(1), rel.Str("a"), rel.Float(0)})
		return err
	})
	for round := 0; round < 10; round++ {
		slot := round % 3
		val := float64(round + 1)
		commitTx(t, primary, slot, func(tx *core.Tx) error {
			return tx.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(val)})
		})
	}
	if _, err := standby.CatchUp(); err != nil {
		t.Fatal(err)
	}
	row, found := standbyRead(t, standby, 1)
	if !found || row[2].F != 10 {
		t.Fatalf("final standby value = (%v,%v), want 10", row, found)
	}
}

// TestApplyFailpoint injects an error at the replica.apply site: the
// shipping round must surface it without losing the transaction — once
// the fault clears, the next round applies everything, because a failed
// round leaves its pending/commit state in place for retry.
func TestApplyFailpoint(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	primary, standby := pair(t)
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		for i := 1; i <= 3; i++ {
			if _, err := tx.Insert("accounts", rel.Row{rel.Int(int64(i)), rel.Str("a"), rel.Float(1)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := fault.Enable(fault.ReplicaApply, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.CatchUp(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("CatchUp error = %v, want injected fault", err)
	}
	fault.Reset()
	n, err := standby.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("applied %d records after fault cleared, want 3", n)
	}
	for i := int64(1); i <= 3; i++ {
		if _, found := standbyRead(t, standby, i); !found {
			t.Fatalf("standby row %d missing after retried apply", i)
		}
	}
}

// TestStandbyFollowsCatalog: a standby with nothing declared follows the
// CREATE TABLE and CREATE INDEX the primary issues after it started — the
// index built online over rows both sides already hold — serves the rows
// through the new index, and promotes.
func TestStandbyFollowsCatalog(t *testing.T) {
	primary, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	sEng, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sEng.Close() })
	s := NewStandby(sEng, primary.WAL.Dir())
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}

	declare(t, primary)
	commitTx(t, primary, 0, insertAccount(1))
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, found := standbyRead(t, s, 1); !found {
		t.Fatal("standby did not follow CREATE TABLE / CREATE INDEX")
	}
	if _, err := primary.CreateIndexOnline("accounts", "accounts_owner", []string{"owner"}, false,
		func(fn func(tx *core.Tx) error) error {
			commitTx(t, primary, 1, fn)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	commitTx(t, primary, 0, insertAccount(2))
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	owners := func() int {
		tx := sEng.Begin(3, txn.ReadCommitted, nil, nil, nil)
		defer tx.Rollback()
		n := 0
		if err := tx.ScanIndex("accounts", "accounts_owner", []rel.Value{rel.Str("o")}, func(rel.RowID, rel.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := owners(); n != 2 {
		t.Fatalf("standby index accounts_owner reaches %d rows, want 2", n)
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	commitTx(t, sEng, 0, insertAccount(3))
	if n := owners(); n != 3 {
		t.Fatalf("promoted standby's index reaches %d rows, want 3", n)
	}
}
