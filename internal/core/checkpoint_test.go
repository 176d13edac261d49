package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"phoebedb/internal/rel"
)

// reopenEngine closes e and opens a fresh engine on the same directory
// with the accounts schema declared.
func reopenEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: dir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.CreateTable("accounts", accountSchema())
	e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	return e
}

func TestCheckpointBasicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateTable("accounts", accountSchema())
	e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	w := begin(e, 0)
	var rids []rel.RowID
	for i := 0; i < 50; i++ {
		rid, _ := w.Insert("accounts", acct(i, "cp", float64(i)))
		rids = append(rids, rid)
	}
	w.Commit()
	d := begin(e, 1)
	d.Delete("accounts", rids[7])
	d.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint work, to be replayed from the checkpoint's log file.
	u := begin(e, 2)
	u.Update("accounts", rids[3], map[string]rel.Value{"balance": rel.Float(333)})
	u.Insert("accounts", acct(100, "post-cp", 1))
	u.Commit()
	e.Close()

	e2 := reopenEngine(t, dir)
	n, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("post-checkpoint records not replayed")
	}
	r := begin(e2, 0)
	defer r.Rollback()
	row, ok, _ := r.Get("accounts", rids[3])
	if !ok || row[2].F != 333 {
		t.Fatalf("post-cp update lost: (%v,%v)", row, ok)
	}
	if _, ok, _ := r.Get("accounts", rids[7]); ok {
		t.Fatal("pre-cp delete resurrected")
	}
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(100)); !found {
		t.Fatal("post-cp insert lost")
	}
	// Index rebuilt over checkpointed rows too.
	if _, _, found, _ := r.GetByIndex("accounts", "accounts_pk", rel.Int(5)); !found {
		t.Fatal("checkpointed row missing from index")
	}
	count := 0
	r.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != 50 { // 50 inserted - 1 deleted + 1 post-cp
		t.Fatalf("row count = %d, want 50", count)
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	tx := begin(e, 0)
	tx.Insert("accounts", acct(1, "x", 1))
	if err := e.Checkpoint(); !errors.Is(err, ErrActiveTransactions) {
		t.Fatalf("err = %v", err)
	}
	tx.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBeforeRecoverRefused: a checkpoint on a reopened directory
// whose history has not been recovered would write an image without that
// history and truncate the log that holds it. It fails with
// ErrNotRecovered, and the history survives to the next Recover.
func TestCheckpointBeforeRecoverRefused(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	setupAccounts(t, e)
	w := begin(e, 0)
	if _, err := w.Insert("accounts", acct(1, "kept", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("checkpoint before Recover = %v, want ErrNotRecovered", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after Recover: %v", err)
	}
	r := begin(e, 0)
	defer r.Rollback()
	if _, _, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(1)); err != nil || !found {
		t.Fatalf("committed row after the refused checkpoint = (%v, %v), want found", found, err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.CreateTable("accounts", accountSchema())
	w := begin(e, 0)
	for i := 0; i < 100; i++ {
		w.Insert("accounts", acct(i, "x", 1))
	}
	w.Commit()
	before := walBytes(t, dir)
	if before == 0 {
		t.Fatal("no WAL written")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := walBytes(t, dir); after != 0 {
		t.Fatalf("WAL after the checkpoint holds %d bytes, want 0", after)
	}
}

func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	matches, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	var total int64
	for _, m := range matches {
		st, err := os.Stat(m)
		if err == nil {
			total += st.Size()
		}
	}
	return total
}

func TestCheckpointWithFrozenData(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 4, PageCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateTable("accounts", accountSchema())
	e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	w := begin(e, 0)
	for i := 0; i < 20; i++ {
		w.Insert("accounts", acct(i, "cold", float64(i)))
	}
	w.Commit()
	e.CollectGarbage()
	if _, err := e.FreezeTables(3, 1<<20); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("accounts")
	frozenSegs := tbl.Frozen.NumSegments()
	if frozenSegs == 0 {
		t.Fatal("nothing frozen")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint: update a frozen row (warms it, logging a frozen
	// delete + hot insert that recovery must replay correctly).
	u := begin(e, 1)
	rid, _, found, _ := u.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if !found {
		t.Fatal("frozen row missing")
	}
	if err := u.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(777)}); err != nil {
		t.Fatal(err)
	}
	u.Commit()
	e.Close()

	e2, err := Open(Config{Dir: dir, Slots: 4, PageCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.CreateTable("accounts", accountSchema())
	e2.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := e2.Table("accounts")
	if tbl2.Frozen.NumSegments() != frozenSegs {
		t.Fatalf("frozen segments = %d, want %d", tbl2.Frozen.NumSegments(), frozenSegs)
	}
	r := begin(e2, 0)
	defer r.Rollback()
	// The warmed row carries the post-cp update; the frozen copy is dead.
	_, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(1))
	if err != nil || !found || row[2].F != 777 {
		t.Fatalf("warmed row after recovery = (%v,%v,%v)", row, found, err)
	}
	// All 20 logical rows still exist exactly once.
	count := 0
	r.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != 20 {
		t.Fatalf("row count = %d, want 20", count)
	}
	// Frozen reads still work for untouched rows.
	_, row, found, _ = r.GetByIndex("accounts", "accounts_pk", rel.Int(2))
	if !found || row[2].F != 2 {
		t.Fatalf("frozen row 2 = (%v,%v)", row, found)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateTable("accounts", accountSchema())
	w := begin(e, 0)
	w.Insert("accounts", acct(1, "x", 1))
	w.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	// Corrupt a byte in the checkpoint body.
	path := filepath.Join(dir, "checkpoint.db")
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	e2, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.CreateTable("accounts", accountSchema())
	if _, err := e2.Recover(); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

func TestRepeatedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateTable("accounts", accountSchema())
	e.CreateIndex("accounts", "accounts_pk", []string{"id"}, true)
	for round := 0; round < 3; round++ {
		w := begin(e, 0)
		for i := 0; i < 10; i++ {
			w.Insert("accounts", acct(round*10+i, "r", float64(round)))
		}
		w.Commit()
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	e.Close()
	e2 := reopenEngine(t, dir)
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	r := begin(e2, 0)
	defer r.Rollback()
	count := 0
	r.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != 30 {
		t.Fatalf("rows = %d, want 30", count)
	}
	// New work continues after recovery from the latest checkpoint.
	w := begin(e2, 1)
	if _, err := w.Insert("accounts", acct(999, "new", 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}
