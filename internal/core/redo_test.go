package core_test

import (
	"testing"

	"phoebedb/internal/core"
	"phoebedb/internal/fault/crashtest"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// TestUniqueKeyMovesBetweenRowsRecovers: row A with unique key k is
// deleted, and a later transaction inserts row B with k on another page.
// After a crash, a lookup of k must find B. Redo applies the delete before
// the insert (commit-timestamp order) and keeps the index current as it
// goes, so the delete must drop A's entry and the insert must leave B's.
// The frozen variant freezes A and checkpoints first, so redo deletes A
// from the frozen layer of the recovered image and drops its entries.
func TestUniqueKeyMovesBetweenRowsRecovers(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		name := "hot"
		if frozen {
			name = "frozen"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := core.Config{Dir: dir, Slots: 2, PageCap: 4}
			e, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateTable("kv", rel.NewSchema(
				rel.Column{Name: "k", Type: rel.TInt64},
				rel.Column{Name: "v", Type: rel.TString},
			)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateIndex("kv", "kv_k", []string{"k"}, true); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CreateIndex("kv", "kv_v", []string{"v"}, false); err != nil {
				t.Fatal(err)
			}
			exec := func(slot int, fn func(tx *core.Tx) error) {
				t.Helper()
				tx := e.Begin(slot, txn.ReadCommitted, nil, nil, nil)
				if err := fn(tx); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			insert := func(tx *core.Tx, k int64, v string) (rel.RowID, error) {
				return tx.Insert("kv", rel.Row{rel.Int(k), rel.Str(v)})
			}
			var ridA rel.RowID
			exec(0, func(tx *core.Tx) (err error) {
				ridA, err = insert(tx, 7, "A")
				for k := int64(8); k < 16 && err == nil; k++ { // fill A's page and the next
					_, err = insert(tx, k, "filler")
				}
				return err
			})
			if frozen {
				e.CollectGarbage() // drop the twin tables that pin the pages
				if n, err := e.FreezeTables(1, ^uint32(0)); err != nil || n == 0 {
					t.Fatalf("FreezeTables = %d, %v", n, err)
				}
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			exec(0, func(tx *core.Tx) error { return tx.Delete("kv", ridA) })
			var ridB rel.RowID
			exec(1, func(tx *core.Tx) (err error) {
				ridB, err = insert(tx, 7, "B")
				return err
			})
			if ridB-ridA < rel.RowID(cfg.PageCap) {
				t.Fatalf("B (rid %d) may share A's page (rid %d)", ridB, ridA)
			}

			// Crash: abandon e and recover its directory.
			e2, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if _, err := e2.Recover(); err != nil {
				t.Fatal(err)
			}
			tx := e2.Begin(0, txn.ReadCommitted, nil, nil, nil)
			rid, row, found, err := tx.GetByIndex("kv", "kv_k", rel.Int(7))
			tx.Commit()
			if err != nil || !found || rid != ridB || row[1].S != "B" {
				t.Fatalf("lookup of k = (rid %d, %v, %v, %v), want B at rid %d", rid, row, found, err, ridB)
			}
			tbl, err := e2.Table("kv")
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range tbl.Indexes() {
				if n := ix.Tree.Len(); n != 9 { // B and the eight fillers
					t.Errorf("index %s holds %d entries for 9 rows", ix.Name, n)
				}
				if err := crashtest.VerifyIndex(e2, 1, "kv", ix.Name); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
