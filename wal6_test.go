package phoebedb

import (
	"os"
	"path/filepath"
	"testing"

	"phoebedb/internal/core"
	"phoebedb/internal/replica"
)

// testdata/wal6 is a database directory as Open wrote it when the session
// and system slots kept WAL files of their own: Options{Workers: 1,
// SlotsPerWorker: 2}, CreateTable t (id int64, who string), one Execute
// inserting (1, "pool"), one Session transaction inserting (2, "session"),
// then Close. Its wal/ holds six files: wal-0000 for the pool slots,
// wal-0001..0004 for the sessions and wal-0005 for the system slot. The
// records sit in wal-0000, wal-0001 and wal-0005 (the catalog record).
// Today's code must recover it, checkpoint it down to six empty files and
// ship it to a standby.

// copyWAL6 copies the fixture into a scratch directory (recovery and
// checkpoints write to what they open) and returns it.
func copyWAL6(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir("testdata/wal6", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		sub, _ := filepath.Rel("testdata/wal6", p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(root, sub), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, sub), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// checkWAL6Rows checks t holds exactly the fixture's two rows.
func checkWAL6Rows(t *testing.T, tx *Tx, what string) {
	t.Helper()
	got := map[int64]string{}
	if err := tx.ScanTable("t", func(_ RowID, row Row) bool {
		got[row[0].I] = row[1].S
		return true
	}); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != 2 || got[1] != "pool" || got[2] != "session" {
		t.Fatalf("%s: rows = %v, want 1:pool and 2:session", what, got)
	}
}

// openWAL6 opens dir with the fixture's options, recovers it and checks
// its rows. The caller closes it.
func openWAL6(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := db.Execute(func(tx *Tx) error {
		checkWAL6Rows(t, tx, "recovered")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSixWALFileDirectory: a directory with one log file per commit group
// recovers, checkpoints every file empty (the archiver and a standby read
// them all again from the start), and reopens with the same rows.
func TestSixWALFileDirectory(t *testing.T) {
	dir := copyWAL6(t)
	db := openWAL6(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 6 {
		t.Fatalf("log files after checkpoint: %v, want the fixture's six", logs)
	}
	for _, p := range logs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("%s holds %d bytes after the checkpoint, want 0", filepath.Base(p), st.Size())
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := openWAL6(t, dir).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSixWALFileDirectoryShips: a standby following the fixture's wal/
// applies the rows of both commits.
func TestSixWALFileDirectoryShips(t *testing.T) {
	src := copyWAL6(t)
	e, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st := replica.NewStandby(e, filepath.Join(src, "wal"))
	if _, err := st.CatchUp(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin(0, ReadCommitted, nil, nil, nil)
	defer tx.Commit()
	checkWAL6Rows(t, tx, "standby")
}
