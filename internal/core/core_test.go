package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phoebedb/internal/lock"
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

func openTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Slots == 0 {
		cfg.Slots = 8
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func setupAccounts(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.CreateTable("accounts", accountSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("accounts", "accounts_owner", []string{"owner"}, false); err != nil {
		t.Fatal(err)
	}
}

func acct(id int, owner string, bal float64) rel.Row {
	return rel.Row{rel.Int(int64(id)), rel.Str(owner), rel.Float(bal)}
}

func begin(e *Engine, slot int) *Tx { return e.Begin(slot, txn.ReadCommitted, nil, nil, nil) }

func TestInsertGetCommit(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	tx := begin(e, 0)
	rid, err := tx.Insert("accounts", acct(1, "alice", 100))
	if err != nil {
		t.Fatal(err)
	}
	// Own write visible before commit.
	row, ok, err := tx.Get("accounts", rid)
	if err != nil || !ok || row[2].F != 100 {
		t.Fatalf("own read = (%v,%v,%v)", row, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := begin(e, 1)
	row, ok, err = tx2.Get("accounts", rid)
	if err != nil || !ok || !row.Equal(acct(1, "alice", 100)) {
		t.Fatalf("post-commit read = (%v,%v,%v)", row, ok, err)
	}
	tx2.Rollback()
}

func TestUncommittedInvisible(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	r := begin(e, 1)
	if _, ok, _ := r.Get("accounts", rid); ok {
		t.Fatal("uncommitted insert visible to other txn")
	}
	w.Commit()
	// Read committed: next statement sees it.
	if _, ok, _ := r.Get("accounts", rid); !ok {
		t.Fatal("committed insert invisible under read committed")
	}
	r.Rollback()
}

func TestRepeatableReadPinsSnapshot(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()

	rr := e.Begin(1, txn.RepeatableRead, nil, nil, nil)
	row, _, _ := rr.Get("accounts", rid)
	if row[2].F != 100 {
		t.Fatalf("initial read = %v", row)
	}
	u := begin(e, 2)
	if err := u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(500)}); err != nil {
		t.Fatal(err)
	}
	u.Commit()
	// RR still sees the old version.
	row, _, _ = rr.Get("accounts", rid)
	if row[2].F != 100 {
		t.Fatalf("repeatable read drifted: %v", row)
	}
	rr.Rollback()
	// RC sees the new version.
	rc := begin(e, 1)
	row, _, _ = rc.Get("accounts", rid)
	if row[2].F != 500 {
		t.Fatalf("read committed = %v", row)
	}
	rc.Rollback()
}

func TestUpdateRollbackRestores(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()

	u := begin(e, 0)
	u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(999), "owner": rel.Str("mallory")})
	u.Rollback()

	r := begin(e, 1)
	row, ok, _ := r.Get("accounts", rid)
	if !ok || !row.Equal(acct(1, "alice", 100)) {
		t.Fatalf("rollback did not restore: %v", row)
	}
	r.Rollback()
}

func TestInsertRollbackRemovesRowAndIndexEntries(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(7, "ghost", 1))
	w.Rollback()

	r := begin(e, 1)
	if _, ok, _ := r.Get("accounts", rid); ok {
		t.Fatal("rolled-back insert still readable")
	}
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(7)); found {
		t.Fatal("rolled-back insert found via index")
	}
	r.Rollback()
	// The unique slot must be reusable.
	w2 := begin(e, 0)
	if _, err := w2.Insert("accounts", acct(7, "real", 2)); err != nil {
		t.Fatalf("reinsert after rollback: %v", err)
	}
	w2.Commit()
}

func TestDeleteAndVisibility(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()

	rr := e.Begin(1, txn.RepeatableRead, nil, nil, nil)
	rr.Get("accounts", rid) // pin snapshot

	d := begin(e, 2)
	if err := d.Delete("accounts", rid); err != nil {
		t.Fatal(err)
	}
	d.Commit()

	// Old snapshot still sees the row (time travel over the delete).
	row, ok, _ := rr.Get("accounts", rid)
	if !ok || row[2].F != 100 {
		t.Fatalf("old snapshot lost deleted row: (%v,%v)", row, ok)
	}
	rr.Rollback()

	r := begin(e, 1)
	if _, ok, _ := r.Get("accounts", rid); ok {
		t.Fatal("deleted row visible to new txn")
	}
	r.Rollback()
}

func TestDeleteRollback(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()
	d := begin(e, 0)
	d.Delete("accounts", rid)
	d.Rollback()
	r := begin(e, 1)
	if _, ok, _ := r.Get("accounts", rid); !ok {
		t.Fatal("rolled-back delete lost the row")
	}
	r.Rollback()
}

func TestUniqueConstraint(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()
	d := begin(e, 0)
	if _, err := d.Insert("accounts", acct(1, "bob", 50)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	d.Rollback()
	// After deleting and GC-ing, the key can be reused even before GC
	// thanks to the visibility-checked unique probe.
	del := begin(e, 0)
	_, _, _, _ = del.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	rid, _, found, _ := del.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if !found {
		t.Fatal("setup row missing")
	}
	del.Delete("accounts", rid)
	del.Commit()
	re := begin(e, 0)
	if _, err := re.Insert("accounts", acct(1, "carol", 7)); err != nil {
		t.Fatalf("reuse of deleted unique key: %v", err)
	}
	re.Commit()
}

func TestIndexScanAndPointLookup(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 10; i++ {
		owner := "alice"
		if i%2 == 0 {
			owner = "bob"
		}
		w.Insert("accounts", acct(i, owner, float64(i)))
	}
	w.Commit()

	r := begin(e, 1)
	_, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(5))
	if err != nil || !found || row[1].S != "alice" {
		t.Fatalf("pk lookup = (%v,%v,%v)", row, found, err)
	}
	var bobs []int64
	err = r.ScanIndex("accounts", "accounts_owner", []rel.Value{rel.Str("bob")}, func(rid rel.RowID, row rel.Row) bool {
		bobs = append(bobs, row[0].I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bobs) != 5 {
		t.Fatalf("bob scan = %v", bobs)
	}
	// Missing key.
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(99)); found {
		t.Fatal("missing key found")
	}
	r.Rollback()
}

func TestScanTableVisibility(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 5; i++ {
		w.Insert("accounts", acct(i, "x", float64(i)))
	}
	w.Commit()
	// One uncommitted extra row must not appear in another txn's scan.
	w2 := begin(e, 0)
	w2.Insert("accounts", acct(6, "hidden", 0))

	r := begin(e, 1)
	count := 0
	r.ScanTable("accounts", func(rid rel.RowID, row rel.Row) bool {
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("scan saw %d rows, want 5", count)
	}
	r.Rollback()
	w2.Rollback()
}

func TestWriteConflictWaitReadCommitted(t *testing.T) {
	e := openTestEngine(t, Config{LockTimeout: 2 * time.Second})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()

	t1 := begin(e, 0)
	if err := t1.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(150)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		t2 := begin(e, 1)
		if err := t2.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(200)}); err != nil {
			done <- err
			return
		}
		done <- t2.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer did not wait: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := begin(e, 2)
	row, _, _ := r.Get("accounts", rid)
	if row[2].F != 200 {
		t.Fatalf("final balance = %v", row[2])
	}
	r.Rollback()
}

func TestWriteConflictTimeout(t *testing.T) {
	e := openTestEngine(t, Config{LockTimeout: 50 * time.Millisecond})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()
	t1 := begin(e, 0)
	t1.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(1)})
	t2 := begin(e, 1)
	err := t2.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(2)})
	if !errors.Is(err, lock.ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
	t2.Rollback()
	t1.Commit()
}

func TestRepeatableReadWriteConflictAborts(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()

	rr := e.Begin(1, txn.RepeatableRead, nil, nil, nil)
	rr.Get("accounts", rid) // pin snapshot

	u := begin(e, 0)
	u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(2)})
	u.Commit()

	err := rr.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(3)})
	if !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("err = %v", err)
	}
	rr.Rollback()
}

func TestGCRemovesDeletedTuplesAndIndexEntries(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	rid, _ := w.Insert("accounts", acct(1, "alice", 100))
	w.Commit()
	d := begin(e, 0)
	d.Delete("accounts", rid)
	d.Commit()
	e.CollectGarbage()
	// After GC the tuple and its index entries are physically gone.
	tbl, _ := e.Table("accounts")
	r := begin(e, 1)
	if _, ok, _ := r.Get("accounts", rid); ok {
		t.Fatal("row visible after GC")
	}
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(1)); found {
		t.Fatal("index entry survives GC")
	}
	r.Rollback()
	if tbl.Index("accounts_pk").Tree.Len() != 0 {
		t.Fatalf("pk tree has %d entries after GC", tbl.Index("accounts_pk").Tree.Len())
	}
}

func TestCommitPersistsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, WALSync: false, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	setup := func(e *Engine) {
		e.CreateTable("accounts", accountSchema())
		e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	}
	setup(e)
	var committedRID, updatedRID rel.RowID
	w := begin(e, 0)
	committedRID, _ = w.Insert("accounts", acct(1, "alice", 100))
	updatedRID, _ = w.Insert("accounts", acct(2, "bob", 50))
	w.Commit()
	u := begin(e, 1)
	u.Update("accounts", updatedRID, map[string]rel.Value{"balance": rel.Float(75)})
	u.Commit()
	d := begin(e, 2)
	d.Delete("accounts", committedRID)
	d.Commit()
	// An uncommitted transaction's changes must not survive.
	loser := begin(e, 3)
	loser.Insert("accounts", acct(3, "ghost", 9))
	// Simulate crash: flush nothing further, just drop the engine.
	e.WAL.FlushAll() // the committed work is already flushed by commits
	e.Close()

	e2, err := Open(Config{Dir: dir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	setup(e2)
	n, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	r := begin(e2, 0)
	if _, ok, _ := r.Get("accounts", committedRID); ok {
		t.Fatal("committed delete not replayed")
	}
	row, ok, _ := r.Get("accounts", updatedRID)
	if !ok || row[2].F != 75 {
		t.Fatalf("recovered update = (%v,%v)", row, ok)
	}
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(3)); found {
		t.Fatal("uncommitted insert recovered")
	}
	// Recovered index works.
	_, row, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(2))
	if !found || row[2].F != 75 {
		t.Fatalf("recovered index lookup = (%v,%v)", row, found)
	}
	r.Rollback()
	// New transactions keep working after recovery.
	w2 := begin(e2, 1)
	if _, err := w2.Insert("accounts", acct(4, "dave", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeAndReadFrozen(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 4})
	setupAccounts(t, e)
	w := begin(e, 0)
	var rids []rel.RowID
	for i := 1; i <= 20; i++ {
		rid, _ := w.Insert("accounts", acct(i, "cold", float64(i)))
		rids = append(rids, rid)
	}
	w.Commit()
	e.CollectGarbage() // drop twins so pages are freezable
	// Cool all pages.
	tbl, _ := e.Table("accounts")
	for i := 0; i < 25; i++ {
		e.Pool.Maintain(0)
	}
	n, err := e.FreezeTables(3, 1<<20) // any hotness qualifies
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing frozen")
	}
	if tbl.Frozen.NumSegments() == 0 || tbl.Store.MaxFrozenRowID() == 0 {
		t.Fatal("frozen bookkeeping missing")
	}
	// Frozen rows remain readable by rid and via index.
	r := begin(e, 1)
	row, ok, err := r.Get("accounts", rids[0])
	if err != nil || !ok || row[0].I != 1 {
		t.Fatalf("frozen get = (%v,%v,%v)", row, ok, err)
	}
	_, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(2))
	if err != nil || !found || row[2].F != 2 {
		t.Fatalf("frozen index get = (%v,%v,%v)", row, found, err)
	}
	// Full scans cover frozen + hot.
	count := 0
	r.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != 20 {
		t.Fatalf("scan over frozen+hot = %d rows", count)
	}
	r.Rollback()
}

func TestUpdateFrozenRowWarmsIt(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 4})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 12; i++ {
		w.Insert("accounts", acct(i, "cold", float64(i)))
	}
	w.Commit()
	e.CollectGarbage()
	if _, err := e.FreezeTables(2, 1<<20); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("accounts")
	frontier := tbl.Store.MaxFrozenRowID()
	if frontier == 0 {
		t.Fatal("nothing frozen")
	}

	u := begin(e, 0)
	rid, _, found, err := u.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if err != nil || !found {
		t.Fatalf("frozen row not found: %v", err)
	}
	if err := u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(500)}); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}

	r := begin(e, 1)
	newRID, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if err != nil || !found || row[2].F != 500 {
		t.Fatalf("warmed row = (%v,%v,%v)", row, found, err)
	}
	if newRID <= frontier {
		t.Fatalf("warmed row kept frozen rid %d", newRID)
	}
	// The frozen copy is tombstoned.
	if _, ok, _ := r.Get("accounts", rid); ok {
		t.Fatal("frozen original still visible")
	}
	r.Rollback()
}

func TestUpdateFrozenRollbackRestoresFrozenCopy(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 4})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 12; i++ {
		w.Insert("accounts", acct(i, "cold", float64(i)))
	}
	w.Commit()
	e.CollectGarbage()
	e.FreezeTables(2, 1<<20)

	u := begin(e, 0)
	rid, _, found, _ := u.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if !found {
		t.Fatal("frozen row missing")
	}
	if err := u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(500)}); err != nil {
		t.Fatal(err)
	}
	u.Rollback()

	r := begin(e, 1)
	gotRID, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if err != nil || !found || row[2].F != 1 {
		t.Fatalf("after rollback = (%v,%v,%v)", row, found, err)
	}
	if gotRID != rid {
		t.Fatalf("rollback left rid %d, want frozen %d", gotRID, rid)
	}
	r.Rollback()
}

func TestEvictionUnderPressureKeepsCorrectness(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8, BufferBytes: 64 * 1024, PageSize: 8 * 1024})
	setupAccounts(t, e)
	w := begin(e, 0)
	const n = 400
	rids := make([]rel.RowID, n)
	for i := 0; i < n; i++ {
		rids[i], _ = w.Insert("accounts", acct(i, fmt.Sprintf("owner-%d", i), float64(i)))
	}
	w.Commit()
	e.CollectGarbage()
	for i := 0; i < 50; i++ {
		e.Pool.Maintain(0)
	}
	r := begin(e, 1)
	for i := 0; i < n; i += 17 {
		row, ok, err := r.Get("accounts", rids[i])
		if err != nil || !ok || row[0].I != int64(i) {
			t.Fatalf("row %d after eviction = (%v,%v,%v)", i, row, ok, err)
		}
	}
	r.Rollback()
}

func TestConcurrentTransfers(t *testing.T) {
	// Banking invariant: concurrent transfers preserve the total balance.
	e := openTestEngine(t, Config{Slots: 8, LockTimeout: 5 * time.Second})
	setupAccounts(t, e)
	const accounts = 10
	const initial = 1000.0
	w := begin(e, 0)
	rids := make([]rel.RowID, accounts)
	for i := 0; i < accounts; i++ {
		rids[i], _ = w.Insert("accounts", acct(i, "holder", initial))
	}
	w.Commit()

	const workers = 4
	const transfersPer = 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < transfersPer; i++ {
				from := rids[(slot+i)%accounts]
				to := rids[(slot+i+1)%accounts]
				if from == to {
					continue
				}
				for {
					tx := begin(e, slot)
					err := transfer(tx, from, to, 1)
					if err == nil {
						if err = tx.Commit(); err == nil {
							break
						}
					} else {
						tx.Rollback()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	r := begin(e, 7)
	var total float64
	r.ScanTable("accounts", func(rid rel.RowID, row rel.Row) bool {
		total += row[2].F
		return true
	})
	r.Rollback()
	if total != accounts*initial {
		t.Fatalf("total balance = %g, want %g (money created or destroyed)", total, accounts*initial)
	}
}

func transfer(tx *Tx, from, to rel.RowID, amount float64) error {
	// Atomic read-modify-writes: read committed permits lost updates with
	// the read-then-write pattern (as in PostgreSQL), so transfers use
	// Modify, the UPDATE ... RETURNING equivalent.
	if _, err := tx.Modify("accounts", from, func(cur rel.Row) (map[string]rel.Value, error) {
		return map[string]rel.Value{"balance": rel.Float(cur[2].F - amount)}, nil
	}); err != nil {
		return err
	}
	_, err := tx.Modify("accounts", to, func(cur rel.Row) (map[string]rel.Value, error) {
		return map[string]rel.Value{"balance": rel.Float(cur[2].F + amount)}, nil
	})
	return err
}

func TestTxnDoneErrors(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	tx := begin(e, 0)
	tx.Commit()
	if _, err := tx.Insert("accounts", acct(1, "x", 1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("rollback-after-commit err = %v", err)
	}
}

func TestCatalogErrors(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	if _, err := e.CreateTable("accounts", accountSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := e.CreateIndex("accounts", "bad", []string{"nope"}, false); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad column err = %v", err)
	}
	if _, err := e.CreateIndex("missing", "x", []string{"id"}, false); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("bad table err = %v", err)
	}
	tx := begin(e, 0)
	defer tx.Rollback()
	if _, _, _, err := tx.GetByIndex("accounts", "nope", rel.Int(1)); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("bad index err = %v", err)
	}
	rid, err := tx.Insert("accounts", acct(9, "x", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", rid, map[string]rel.Value{"nope": rel.Int(1)}); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad update column err = %v", err)
	}
	if err := tx.Update("accounts", 9999, map[string]rel.Value{"balance": rel.Float(1)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing row update err = %v", err)
	}
}

// TestCommitOutlivesLostForeignRecords: a commit that shares a page with
// another slot's uncommitted change depends on nothing but its own records.
// Slot 3 updates row A and does not commit; slot 2 inserts row B on the same
// page and commits. Slot 2's flush writes its own records only: the log
// holds none of slot 3's transaction, and a copy of the directory recovers
// B and A's committed value, because redo applies only transactions whose
// commit record is on disk and never compares page GSNs. Slot 3's records
// reach the log with its own commit: a copy taken then recovers A's new
// value.
func TestCommitOutlivesLostForeignRecords(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, Config{Dir: dir, Slots: 4})
	setupAccounts(t, e)
	w := begin(e, 0)
	ridA, err := w.Insert("accounts", acct(1, "a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	foreign := begin(e, 3)
	if err := foreign.Update("accounts", ridA, map[string]rel.Value{"balance": rel.Float(3)}); err != nil {
		t.Fatal(err)
	}
	own := begin(e, 2)
	if _, err := own.Insert("accounts", acct(2, "b", 2)); err != nil {
		t.Fatal(err)
	}
	if tbl, _ := e.Table("accounts"); tbl.Store.NumPages() != 1 {
		t.Fatalf("rows span %d pages, want both changes on one page", tbl.Store.NumPages())
	}
	if err := own.Commit(); err != nil {
		t.Fatal(err)
	}

	log := filepath.Join(dir, "wal", wal.FileName(0))
	if n := countLogged(t, log, func(r wal.Record) bool { return r.XID == foreign.XID() }); n != 0 {
		t.Fatalf("slot 2's commit wrote %d of slot 3's open records", n)
	}
	lost := filepath.Join(t.TempDir(), "lost")
	copyDir(t, dir, lost)
	checkBalances(t, lost, 1)

	if err := foreign.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countLogged(t, log, func(r wal.Record) bool { return r.XID == foreign.XID() }); n != 2 {
		t.Fatalf("slot 3's commit wrote %d records, want its update and its commit", n)
	}
	later := filepath.Join(t.TempDir(), "later")
	copyDir(t, dir, later)
	checkBalances(t, later, 3)
}

// TestLogHoldsCommittedWorkOnly: a flush writes each writer's buffer only
// up to its commit point. Slot 0's transaction inserts, and stays open,
// while slot 1 commits again and again; with the engine abandoned unclosed,
// the log holds no record of slot 0's transaction, and a copy of the
// directory recovers slot 1's rows alone. Once slot 0 rolls back and the
// log is flushed again, it holds no abort record either.
func TestLogHoldsCommittedWorkOnly(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, Config{Dir: dir, Slots: 4})
	setupAccounts(t, e)
	const rows = 40
	open := begin(e, 0)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rows; i++ {
			if _, err := open.Insert("accounts", acct(1000+i, "open", 0)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rows; i++ {
		tx := begin(e, 1)
		if _, err := tx.Insert("accounts", acct(i, "committed", 1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := e.WAL.FlushAll(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "wal", wal.FileName(0))
	if n := countLogged(t, log, func(r wal.Record) bool { return r.XID == open.XID() }); n != 0 {
		t.Fatalf("the log holds %d records of the open transaction", n)
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)
	re := openTestEngine(t, Config{Dir: crashed, Slots: 4})
	if _, err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	owners := make(map[string]int)
	r := begin(re, 0)
	if err := r.ScanTable("accounts", func(_ rel.RowID, row rel.Row) bool {
		owners[row[1].S]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	r.Commit()
	if owners["committed"] != rows || owners["open"] != 0 {
		t.Fatalf("recovered rows by owner %v, want %d committed and no open", owners, rows)
	}

	if err := open.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := e.WAL.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := countLogged(t, log, func(r wal.Record) bool { return r.XID == open.XID() || r.Type == wal.RecAbort }); n != 0 {
		t.Fatalf("after the rollback the log holds %d of its records or abort records", n)
	}
}

// copyDir copies the regular files under src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, name), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, name), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countLogged returns how many records of the log at path match.
func countLogged(t *testing.T, path string, match func(wal.Record) bool) (n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal.Scan(data, 0, func(r wal.Record, _ []byte) bool {
		if match(r) {
			n++
		}
		return true
	})
	return n
}

// checkBalances recovers dir and requires row 1 at balance a and row 2
// present.
func checkBalances(t *testing.T, dir string, a float64) {
	t.Helper()
	e := openTestEngine(t, Config{Dir: dir, Slots: 4})
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	r := begin(e, 0)
	defer r.Rollback()
	if _, row, ok, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(1)); !ok || row[2].F != a {
		t.Fatalf("row 1 after recovery = (%v, %v), want balance %v", row, ok, a)
	}
	if _, _, ok, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(2)); !ok {
		t.Fatal("committed row 2 lost")
	}
}

func TestMaintainWorkerRuns(t *testing.T) {
	e := openTestEngine(t, Config{BufferBytes: 1})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 0; i < 100; i++ {
		w.Insert("accounts", acct(i, "x", 1))
	}
	w.Commit()
	e.MaintainWorker(0) // must not panic and should reclaim undo records
	tbl, _ := e.Table("accounts")
	_ = tbl
	if e.Mgr.Arena(0).Live() != 0 {
		t.Fatalf("arena live = %d after maintain", e.Mgr.Arena(0).Live())
	}
}

// insertAsync runs the insert of acct(id, owner, 0) on its own transaction
// in slot 1 and reports the insert's error, committing when it succeeds.
func insertAsync(e *Engine, id int, owner string) <-chan error {
	done := make(chan error, 1)
	go func() {
		tx := begin(e, 1)
		if _, err := tx.Insert("accounts", acct(id, owner, 0)); err != nil {
			tx.Rollback()
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	return done
}

// awaitWaiter returns once a transaction has parked on another one since
// the wait count c read waits, and fails if the transaction behind done
// finishes first.
func awaitWaiter(t *testing.T, c *atomic.Int64, waits int64, done <-chan error) {
	t.Helper()
	for c.Load() == waits {
		select {
		case err := <-done:
			t.Fatalf("finished without waiting for the other transaction: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// A second insert of a unique key that an unfinished transaction holds
// waits for it, and the first one's commit makes the second a duplicate:
// the table never holds two committed rows with one key.
func TestUniqueInsertWaitsForUncommittedCommit(t *testing.T) {
	e := openTestEngine(t, Config{LockTimeout: 5 * time.Second})
	setupAccounts(t, e)
	a := begin(e, 0)
	if _, err := a.Insert("accounts", acct(1, "alice", 0)); err != nil {
		t.Fatal(err)
	}
	waits := e.Stats().TupleLockWaits.Load()
	done := insertAsync(e, 1, "bob")
	awaitWaiter(t, &e.Stats().TupleLockWaits, waits, done)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second insert after the first committed = %v, want ErrDuplicate", err)
	}
	r := begin(e, 2)
	defer r.Rollback()
	var owners []string
	r.ScanTable("accounts", func(_ rel.RowID, row rel.Row) bool {
		if row[0].I == 1 {
			owners = append(owners, row[1].S)
		}
		return true
	})
	if len(owners) != 1 || owners[0] != "alice" {
		t.Fatalf("rows with key 1 = %q, want [alice]", owners)
	}
}

// When the first insert of a unique key rolls back, the waiting second
// insert goes ahead, and the first one's rollback does not take the
// second one's index entry with it.
func TestUniqueInsertWaitsForUncommittedRollback(t *testing.T) {
	e := openTestEngine(t, Config{LockTimeout: 5 * time.Second})
	setupAccounts(t, e)
	a := begin(e, 0)
	if _, err := a.Insert("accounts", acct(1, "alice", 0)); err != nil {
		t.Fatal(err)
	}
	waits := e.Stats().TupleLockWaits.Load()
	done := insertAsync(e, 1, "bob")
	awaitWaiter(t, &e.Stats().TupleLockWaits, waits, done)
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second insert after the first rolled back: %v", err)
	}
	r := begin(e, 2)
	defer r.Rollback()
	_, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if err != nil || !found || row[1].S != "bob" {
		t.Fatalf("GetByIndex(1) = (%v, %v, %v), want bob's committed row", row, found, err)
	}
}
