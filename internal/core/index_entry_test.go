package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"phoebedb/internal/core"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// The index entry lifecycle: every write claims its key through one rule
// and GC, rollback and Redo release it through one rule, so a unique key
// is held by one row, a key a row left is free again once no snapshot
// reaches the version that had it, and the live and recovered indexes
// agree entry for entry.

// openKV opens an engine on dir with table t (id, g): a unique index on
// id and a non-unique one on g.
func openKV(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{Dir: dir, Slots: 4, PageCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("t", rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "g", Type: rel.TInt64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("t", "t_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("t", "t_g", []string{"g"}, false); err != nil {
		t.Fatal(err)
	}
	return e
}

// run executes fn in a transaction on slot 0 and commits it.
func run(t *testing.T, e *core.Engine, fn func(tx *core.Tx) error) {
	t.Helper()
	tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func insertKV(t *testing.T, e *core.Engine, id, g int64) rel.RowID {
	t.Helper()
	var rid rel.RowID
	run(t, e, func(tx *core.Tx) (err error) {
		rid, err = tx.Insert("t", rel.Row{rel.Int(id), rel.Int(g)})
		return err
	})
	return rid
}

// rowsKV returns every visible row of t as [id g] pairs, in row_id order.
func rowsKV(t *testing.T, e *core.Engine) [][2]int64 {
	t.Helper()
	var out [][2]int64
	run(t, e, func(tx *core.Tx) error {
		return tx.ScanTable("t", func(_ rel.RowID, row rel.Row) bool {
			out = append(out, [2]int64{row[0].I, row[1].I})
			return true
		})
	})
	return out
}

func gcRounds(e *core.Engine) {
	for i := 0; i < 3; i++ {
		e.CollectGarbage()
	}
}

func indexLen(t *testing.T, e *core.Engine, name string) int {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Index(name).Tree.Len()
}

// An UPDATE onto a unique key another row holds is a duplicate, and both
// rows keep their ids.
func TestUpdateOntoHeldUniqueKeyIsDuplicate(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	insertKV(t, e, 1, 10)
	rid2 := insertKV(t, e, 2, 20)
	tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	err := tx.Update("t", rid2, map[string]rel.Value{"id": rel.Int(1)})
	tx.Rollback()
	if !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("UPDATE id 2 -> 1 = %v, want ErrDuplicate", err)
	}
	if got := fmt.Sprint(rowsKV(t, e)); got != "[[1 10] [2 20]]" {
		t.Fatalf("rows = %s, want [[1 10] [2 20]]", got)
	}
}

// A key a row moved off is free again once GC reclaims the old version.
func TestKeyLeftByUpdateIsFreeAfterGC(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	rid := insertKV(t, e, 1, 10)
	run(t, e, func(tx *core.Tx) error {
		return tx.Update("t", rid, map[string]rel.Value{"id": rel.Int(2)})
	})
	gcRounds(e)
	if n := indexLen(t, e, "t_pk"); n != 1 {
		t.Fatalf("t_pk holds %d entries for 1 row after GC", n)
	}
	insertKV(t, e, 1, 30)
	if got := fmt.Sprint(rowsKV(t, e)); got != "[[2 10] [1 30]]" {
		t.Fatalf("rows = %s, want [[2 10] [1 30]]", got)
	}
}

// A rolled-back delete and re-insert of one key puts the deleted row's
// entry back: the row is found by its key, and the key stays taken.
func TestRollbackOfDeleteAndReinsertRestoresEntry(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	rid := insertKV(t, e, 1, 10)
	tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	if err := tx.Delete("t", rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("t", rel.Row{rel.Int(1), rel.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	run(t, e, func(tx *core.Tx) error {
		got, row, found, err := tx.GetByIndex("t", "t_pk", rel.Int(1))
		if err != nil || !found || got != rid || row[1].I != 10 {
			return fmt.Errorf("WHERE id = 1 = (rid %d, %v, %v, %v), want [1 10] at rid %d", got, row, found, err, rid)
		}
		return nil
	})
	tx = e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	_, err := tx.Insert("t", rel.Row{rel.Int(1), rel.Int(12)})
	tx.Rollback()
	if !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("re-insert of id 1 = %v, want ErrDuplicate", err)
	}
}

// GC releases the non-unique entry of every value a row's key column held.
func TestGCReleasesPastNonUniqueKeys(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	rid := insertKV(t, e, 1, 0)
	for g := int64(1); g <= 1000; g++ {
		run(t, e, func(tx *core.Tx) error {
			return tx.Update("t", rid, map[string]rel.Value{"g": rel.Int(g)})
		})
	}
	gcRounds(e)
	if n := indexLen(t, e, "t_g"); n != 1 {
		t.Fatalf("t_g holds %d entries for 1 row after 1,000 updates and GC", n)
	}
}

// Two transactions UPDATE different rows onto one unique key at once:
// exactly one of them commits it, every round. The winner moves back, and
// GC runs now and then, so the key is by turns free, stale and held.
func TestConcurrentUniqueUpdatesAdmitOne(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	rids := [2]rel.RowID{insertKV(t, e, 1, 0), insertKV(t, e, 2, 0)}
	for round := 0; round < 2000; round++ {
		var won [2]bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := range rids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := e.Begin(w+1, txn.ReadCommitted, nil, nil, nil)
				<-start
				err := tx.Update("t", rids[w], map[string]rel.Value{"id": rel.Int(100)})
				if err == nil {
					won[w] = tx.Commit() == nil
					return
				}
				tx.Rollback()
				if !errors.Is(err, core.ErrDuplicate) {
					t.Errorf("round %d: update of row %d = %v", round, w, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if won[0] == won[1] {
			t.Fatalf("round %d: both or neither update committed id 100: %v", round, won)
		}
		w := 0
		if won[1] {
			w = 1
		}
		run(t, e, func(tx *core.Tx) error {
			return tx.Update("t", rids[w], map[string]rel.Value{"id": rel.Int(int64(w + 1))})
		})
		if round%64 == 0 {
			e.CollectGarbage()
		}
	}
	gcRounds(e)
	if got := fmt.Sprint(rowsKV(t, e)); got != "[[1 0] [2 0]]" {
		t.Fatalf("rows = %s, want [[1 0] [2 0]]", got)
	}
	if n := indexLen(t, e, "t_pk"); n != 2 {
		t.Fatalf("t_pk holds %d entries for 2 rows", n)
	}
}

// entries lists every entry of every index of table t.
func entries(t *testing.T, e *core.Engine) map[string][]string {
	t.Helper()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, ix := range tbl.Indexes() {
		ix.Tree.Scan(nil, nil, func(k []byte, v uint64) bool {
			out[ix.Name] = append(out[ix.Name], fmt.Sprintf("%x=%d", k, v))
			return true
		})
	}
	return out
}

// After a seeded mix of inserts, key-changing updates, deletes and
// rollbacks, and GC with no snapshot open, every live index holds one
// entry per row, and the same directory recovered holds the same entries.
func TestLiveAndRecoveredIndexesAgree(t *testing.T) {
	dir := t.TempDir()
	e := openKV(t, dir)
	if _, err := e.CreateIndex("t", "t_gid", []string{"g", "id"}, false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	var rids []rel.RowID
	refused := 0
	for i := 0; i < 600; i++ {
		tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
		var added []rel.RowID
		var err error
		for s := 0; s < 1+rng.Intn(3) && err == nil; s++ {
			id, g := rel.Int(rng.Int63n(60)), rel.Int(rng.Int63n(8))
			var rid rel.RowID
			if len(rids) > 0 {
				rid = rids[rng.Intn(len(rids))]
			}
			switch op := rng.Intn(10); {
			case op < 4 || rid == 0:
				if rid, err = tx.Insert("t", rel.Row{id, g}); err == nil {
					added = append(added, rid)
				}
			case op < 6:
				err = tx.Update("t", rid, map[string]rel.Value{"id": id})
			case op < 8:
				err = tx.Update("t", rid, map[string]rel.Value{"g": g, "id": id})
			default:
				err = tx.Delete("t", rid)
			}
		}
		switch {
		case errors.Is(err, core.ErrDuplicate):
			refused++
			fallthrough
		case errors.Is(err, core.ErrNotFound) || rng.Intn(5) == 0:
			tx.Rollback()
		case err != nil:
			t.Fatal(err)
		default:
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rids = append(rids, added...)
		}
		if i%50 == 0 {
			e.CollectGarbage()
		}
	}
	if refused == 0 {
		t.Fatal("the mix refused no duplicate key")
	}
	gcRounds(e)
	rows := len(rowsKV(t, e))
	live := entries(t, e)
	for name, es := range live {
		if len(es) != rows {
			t.Errorf("live index %s holds %d entries for %d rows", name, len(es), rows)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := core.Open(core.Config{Dir: dir, Slots: 4, PageCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	recovered := entries(t, e2)
	for name, es := range live {
		if a, b := fmt.Sprint(es), fmt.Sprint(recovered[name]); a != b {
			t.Errorf("index %s: live and recovered entries differ\nlive      %s\nrecovered %s", name, a, b)
		}
	}
	if len(recovered) != len(live) {
		t.Errorf("recovered %d indexes, live %d", len(recovered), len(live))
	}
}

// An UPDATE of a frozen row onto a held unique key warms the row, finds
// the key held, and is a duplicate; the rollback leaves the frozen row
// reachable by its key.
func TestUpdateOfFrozenRowOntoHeldKeyIsDuplicate(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	var rids []rel.RowID
	for id := int64(1); id <= 16; id++ { // two pages of PageCap 8
		rids = append(rids, insertKV(t, e, id, id*10))
	}
	e.CollectGarbage()
	if n, err := e.FreezeTables(1, ^uint32(0)); err != nil || n == 0 {
		t.Fatalf("FreezeTables = %d, %v", n, err)
	}
	tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	err := tx.Update("t", rids[0], map[string]rel.Value{"id": rel.Int(9)})
	tx.Rollback()
	if !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("UPDATE of frozen id 1 -> 9 = %v, want ErrDuplicate", err)
	}
	run(t, e, func(tx *core.Tx) error {
		for _, id := range []int64{1, 9} {
			if _, row, found, err := tx.GetByIndex("t", "t_pk", rel.Int(id)); err != nil || !found || row[1].I != id*10 {
				return fmt.Errorf("WHERE id = %d = (%v, %v, %v)", id, row, found, err)
			}
		}
		return nil
	})
	if n := len(rowsKV(t, e)); n != 16 {
		t.Fatalf("%d rows, want 16", n)
	}
}
