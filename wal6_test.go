package phoebedb

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"phoebedb/internal/backup"
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
// Today's code reads the six as a row of log files named by horizons 0 to
// 5 and writes the newest, wal-0005. It must recover the directory,
// checkpoint it down to that one file, and ship it to a standby and an
// archive.

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
// its rows. It returns the database, which the caller closes, and the
// number of log records the recovery replayed.
func openWAL6(t *testing.T, dir string) (*DB, int) {
	t.Helper()
	db, err := Open(Options{Dir: dir, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Execute(func(tx *Tx) error {
		checkWAL6Rows(t, tx, "recovered")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, replayed
}

// TestSixWALFileDirectory: a directory with one log file per commit group
// recovers, checkpoints down to the newest file, which the log writes (the
// checkpoint removes the older ones), and reopens with the same rows and
// no record to replay.
func TestSixWALFileDirectory(t *testing.T) {
	dir := copyWAL6(t)
	db, _ := openWAL6(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || filepath.Base(logs[0]) != "wal-0005.log" {
		t.Fatalf("log files after checkpoint: %v, want wal-0005.log alone", logs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, replayed := openWAL6(t, dir)
	if replayed != 0 {
		t.Fatalf("reopen after the checkpoint replayed %d records, want 0", replayed)
	}
	if err := db.Close(); err != nil {
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

// wal6Rows returns table t's rows by id, and fails on an id seen twice.
func wal6Rows(t *testing.T, tx *Tx, what string) map[int64]string {
	t.Helper()
	got := map[int64]string{}
	if err := tx.ScanTable("t", func(_ RowID, row Row) bool {
		if _, dup := got[row[0].I]; dup {
			t.Fatalf("%s: row %d twice", what, row[0].I)
		}
		got[row[0].I] = row[1].S
		return true
	}); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return got
}

// TestSixWALFileDirectoryArchives: an archiver attached to the fixture
// reads its six files as a row of six, one archive epoch each, so a
// standby following the archive and a restore of it both hold every row
// of every file, each once. They still do after a checkpoint moved the
// log on and removed the older files, with a commit on either side of it.
func TestSixWALFileDirectoryArchives(t *testing.T) {
	dir, arch := copyWAL6(t), t.TempDir()
	db, err := Open(Options{Dir: dir, Workers: 1, SlotsPerWorker: 2, ArchiveDir: arch, ArchiveInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	sEng, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sEng.Close()
	standby := replica.NewStandby(sEng, filepath.Join(dir, "wal"))
	standby.ArchiveDir = arch
	check := func(what string, want map[int64]string) {
		t.Helper()
		if _, err := db.Archiver().Archive(); err != nil {
			t.Fatalf("%s: archive: %v", what, err)
		}
		if _, err := standby.CatchUp(); err != nil {
			t.Fatalf("%s: standby: %v", what, err)
		}
		tx := sEng.Begin(0, ReadCommitted, nil, nil, nil)
		got := wal6Rows(t, tx, what+": standby")
		tx.Commit()
		if !maps.Equal(got, want) {
			t.Fatalf("%s: standby rows = %v, want %v", what, got, want)
		}
		dest := filepath.Join(t.TempDir(), "restored")
		if _, err := backup.Restore(arch, dest, 0); err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		rdb, err := Open(Options{Dir: dest, Workers: 1, SlotsPerWorker: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rdb.Close()
		if _, err := rdb.Recover(); err != nil {
			t.Fatalf("%s: restored recover: %v", what, err)
		}
		if err := rdb.Execute(func(tx *Tx) error {
			if got := wal6Rows(t, tx, what+": restore"); !maps.Equal(got, want) {
				t.Fatalf("%s: restored rows = %v, want %v", what, got, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int64]string{1: "pool", 2: "session"}
	check("fixture", want)
	if n := db.Archiver().Seals(); n != 5 {
		t.Fatalf("the archive sealed %d epochs over six files, want 5", n)
	}
	insert := func(id int64, who string) {
		t.Helper()
		if err := db.Execute(func(tx *Tx) error {
			_, err := tx.Insert("t", Row{Int(id), Str(who)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want[id] = who
	}
	insert(3, "before")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(4, "after")
	check("after a checkpoint", want)
}
