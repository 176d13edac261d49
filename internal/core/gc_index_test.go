package core_test

import (
	"testing"

	"phoebedb/internal/core"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// TestGCKeepsReclaimedUniqueKey is the regression for a deleted-tuple GC
// bug the crash harness found: a unique index key carries no row_id
// suffix, so after delete(k) + re-insert(k) the index entry is reclaimed
// by the new row. GC of the old tombstone must then leave the entry
// alone — it used to delete it by key, making the live row unreachable
// through the index.
func TestGCKeepsReclaimedUniqueKey(t *testing.T) {
	e, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 1, WALSync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.CreateTable("kv", rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "ver", Type: rel.TInt64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("kv", "kv_id", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	exec := func(fn func(tx *core.Tx) error) {
		t.Helper()
		tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	exec(func(tx *core.Tx) error {
		_, err := tx.Insert("kv", rel.Row{rel.Int(7), rel.Int(1)})
		return err
	})
	exec(func(tx *core.Tx) error {
		rid, _, ok, err := tx.GetByIndex("kv", "kv_id", rel.Int(7))
		if err != nil || !ok {
			t.Fatalf("pre-delete lookup: ok=%v err=%v", ok, err)
		}
		return tx.Delete("kv", rid)
	})
	// Re-insert the same key: the new row reclaims the unique index entry
	// while the old tombstone still awaits GC.
	exec(func(tx *core.Tx) error {
		_, err := tx.Insert("kv", rel.Row{rel.Int(7), rel.Int(2)})
		return err
	})
	e.CollectGarbage() // erases the tombstone — must not touch the entry
	exec(func(tx *core.Tx) error {
		_, row, ok, err := tx.GetByIndex("kv", "kv_id", rel.Int(7))
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("unique index entry lost after GC of the old tombstone")
		}
		if row[1].I != 2 {
			t.Fatalf("lookup found ver %d, want 2", row[1].I)
		}
		return nil
	})
}

// An idle GC round allocates nothing: the table list it walks is the
// catalog's published slice, not a copy sorted on every call.
func TestAllocIdleGCRound(t *testing.T) {
	e := openKV(t, t.TempDir())
	defer e.Close()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := e.CreateTable(name, rel.NewSchema(rel.Column{Name: "x", Type: rel.TInt64})); err != nil {
			t.Fatal(err)
		}
	}
	insertKV(t, e, 1, 10)
	e.CollectGarbage()
	if allocs := testing.AllocsPerRun(100, func() { e.CollectGarbage() }); allocs != 0 {
		t.Fatalf("an idle GC round allocates %.2f objects, want 0", allocs)
	}
}
