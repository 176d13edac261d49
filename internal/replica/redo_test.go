package replica

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phoebedb/internal/core"
	"phoebedb/internal/fault/crashtest"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

// TestStandbyAndRecoveryAgree runs one primary history two ways — a
// standby catching up round by round, and a copy of the primary's
// directory recovered — and checks that both hold the primary's rows and
// exactly one index entry per live row. The history moves a unique key
// and a non-unique key of one row four times each, deletes rows, creates
// an index in the middle of the stream, and warms a frozen row by
// updating it.
func TestStandbyAndRecoveryAgree(t *testing.T) {
	pdir := t.TempDir()
	primary, err := core.Open(core.Config{Dir: pdir, Slots: 4, PageCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	sEng, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4, PageCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sEng.Close() })
	s := NewStandby(sEng, primary.WAL.Dir())
	catchUp := func() {
		t.Helper()
		if _, err := s.CatchUp(); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := primary.CreateTable("items", rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "grp", Type: rel.TInt64},
		rel.Column{Name: "name", Type: rel.TString},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.CreateIndex("items", "items_id", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	rids := make(map[int64]rel.RowID) // id -> rid
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		for id := int64(1); id <= 40; id++ {
			rid, err := tx.Insert("items", rel.Row{rel.Int(id), rel.Int(id % 4), rel.Str(fmt.Sprint("item", id))})
			if err != nil {
				return err
			}
			rids[id] = rid
		}
		return nil
	})
	catchUp()

	// CREATE INDEX over rows both sides already hold.
	if _, err := primary.CreateIndexOnline("items", "items_grp", []string{"grp"}, false,
		func(fn func(tx *core.Tx) error) error {
			commitTx(t, primary, 1, fn)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	// Four moves of one row's unique key and of its non-unique key, each
	// its own transaction; the standby catches up between some of them.
	for i := int64(1); i <= 4; i++ {
		commitTx(t, primary, 0, func(tx *core.Tx) error {
			return tx.Update("items", rids[40], map[string]rel.Value{"id": rel.Int(100 + i), "grp": rel.Int(10 + i)})
		})
		if i%2 == 0 {
			catchUp()
		}
	}
	commitTx(t, primary, 1, func(tx *core.Tx) error {
		for _, id := range []int64{30, 31, 35} {
			if err := tx.Delete("items", rids[id]); err != nil {
				return err
			}
		}
		return nil
	})
	catchUp()

	// Freeze the coldest prefix, then update a frozen row: the update warms
	// it to a new row id (a logged delete of the frozen id plus an insert).
	primary.CollectGarbage()
	if n, err := primary.FreezeTables(2, ^uint32(0)); err != nil || n == 0 {
		t.Fatalf("FreezeTables = %d, %v; want frozen rows", n, err)
	}
	commitTx(t, primary, 2, func(tx *core.Tx) error {
		return tx.Update("items", rids[1], map[string]rel.Value{"grp": rel.Int(99), "name": rel.Str("warmed")})
	})
	commitTx(t, primary, 0, func(tx *core.Tx) error {
		_, err := tx.Insert("items", rel.Row{rel.Int(41), rel.Int(1), rel.Str("late")})
		return err
	})
	catchUp()

	// The copy is what a crash would leave: every commit was flushed.
	rdir := t.TempDir()
	if err := filepath.WalkDir(pdir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(rdir, strings.TrimPrefix(path, pdir))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	recovered, err := core.Open(core.Config{Dir: rdir, Slots: 4, PageCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	if _, err := recovered.Recover(); err != nil {
		t.Fatal(err)
	}

	want := tableRows(t, primary, "items")
	if len(want) != 38 {
		t.Fatalf("primary holds %d rows, want 38", len(want))
	}
	for side, e := range map[string]*core.Engine{"standby": sEng, "recovered": recovered} {
		got := tableRows(t, e, "items")
		if len(got) != len(want) {
			t.Errorf("%s holds %d rows, primary %d", side, len(got), len(want))
		}
		for rid, row := range want {
			if got[rid] != row {
				t.Errorf("%s row %d = %q, primary %q", side, rid, got[rid], row)
			}
		}
		tbl, err := e.Table("items")
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range tbl.Indexes() {
			if n := ix.Tree.Len(); n != len(got) {
				t.Errorf("%s index %s holds %d entries for %d rows", side, ix.Name, n, len(got))
			}
			if err := crashtest.VerifyIndex(e, 3, "items", ix.Name); err != nil {
				t.Errorf("%s: %v", side, err)
			}
		}
	}
}

// tableRows renders every visible row of a table by row id.
func tableRows(t *testing.T, e *core.Engine, table string) map[rel.RowID]string {
	t.Helper()
	tx := e.Begin(3, txn.ReadCommitted, nil, nil, nil)
	defer tx.Rollback()
	rows := make(map[rel.RowID]string)
	if err := tx.ScanTable(table, func(rid rel.RowID, row rel.Row) bool {
		rows[rid] = fmt.Sprint(row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestPromoteLeavesPrimaryWALAlone: promotion reads the dead primary's log
// but must not repair it — a torn tail in the primary's file is the
// primary's own recovery's to truncate.
func TestPromoteLeavesPrimaryWALAlone(t *testing.T) {
	primary, s := pair(t)
	for i := int64(1); i <= 3; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail right behind the last whole record, where a crash
	// mid-flush leaves it: the live log's reserved space lies past it.
	path := filepath.Join(primary.WAL.Dir(), "wal-0000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := wal.Scan(data, 0, func(wal.Record, []byte) bool { return true })
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}
	if _, err := f.WriteAt(garbage, int64(end)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before := walFiles(t, primary.WAL.Dir())
	if !bytes.HasPrefix(before["wal-0000.log"][end:], garbage) {
		t.Fatal("the torn bytes do not follow the last whole record")
	}

	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	after := walFiles(t, primary.WAL.Dir())
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("promote changed the primary's %s: %d bytes became %d", name, len(b), len(after[name]))
		}
	}
	for i := int64(1); i <= 3; i++ {
		if _, found := standbyRead(t, s, i); !found {
			t.Fatalf("promoted standby lacks account %d", i)
		}
	}
}

// walFiles reads every file in a WAL directory.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}
