package phoebedb

import (
	"path/filepath"
	"testing"
	"time"

	"phoebedb/internal/backup"
)

// TestPITRRestoresTheCatalogOfItsTarget: the catalog travels in the
// checkpoint image and the archived log, so a restore needs no schema and
// a point-in-time target keeps exactly the tables and indexes created at
// or before it — never a row without its table. Table a is in the base
// backup's image; tables c and d, then b, its index and its rows come
// after it, in the archived log only.
func TestPITRRestoresTheCatalogOfItsTarget(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	db, err := Open(Options{Dir: dir, ArchiveDir: arch, ArchiveInterval: time.Hour, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(db *DB, q string) SQLResult {
		t.Helper()
		res, err := db.ExecSQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	exec(db, "CREATE TABLE a (id INT)")
	exec(db, "INSERT INTO a VALUES (1)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BaseBackup(); err != nil {
		t.Fatal(err)
	}
	// Other DDL first, so a writer that missed the GSN cut would log b's
	// rows below b's own catalog record.
	exec(db, "CREATE TABLE c (id INT)")
	exec(db, "CREATE TABLE d (id INT)")
	beforeB := db.Engine().WAL.MaxGSN()
	exec(db, "CREATE TABLE b (id INT, v STRING)")
	emptyB := db.Engine().WAL.MaxGSN() // b's catalog record: the GSN cut
	exec(db, "CREATE UNIQUE INDEX b_id ON b (id)")
	exec(db, "INSERT INTO b VALUES (1, 'x'), (2, 'y')")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		what   string
		target uint64
		bRows  int // -1: b must not exist
	}{{"latest", 0, 2}, {"after b's catalog record", emptyB, 0}, {"before it", beforeB, -1}} {
		dest := filepath.Join(t.TempDir(), "restored")
		if _, err := backup.Restore(arch, dest, tc.target); err != nil {
			t.Fatalf("%s: restore: %v", tc.what, err)
		}
		r, err := Open(Options{Dir: dest, Workers: 1, SlotsPerWorker: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recover(); err != nil {
			t.Fatalf("%s: recover: %v", tc.what, err)
		}
		if n := len(exec(r, "SELECT id FROM a").Rows); n != 1 {
			t.Fatalf("%s: a has %d rows, want 1", tc.what, n)
		}
		exec(r, "SELECT id FROM d")
		tbl, err := r.Engine().Table("b")
		switch {
		case tc.bRows < 0 && err == nil:
			t.Fatalf("%s: b exists", tc.what)
		case tc.bRows >= 0 && err != nil:
			t.Fatalf("%s: %v", tc.what, err)
		case tc.bRows >= 0:
			if n := len(exec(r, "SELECT v FROM b").Rows); n != tc.bRows {
				t.Fatalf("%s: b has %d rows, want %d", tc.what, n, tc.bRows)
			}
			if hasIndex := tbl.Index("b_id") != nil; hasIndex != (tc.bRows > 0) {
				t.Fatalf("%s: index b_id present = %v", tc.what, hasIndex)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
