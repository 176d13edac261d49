package wire_test

// DDL durability: the WAL is the schema's journal — CREATE TABLE and CREATE
// INDEX over the wire are logged before they are answered — and a schema.sql
// journal an earlier release left is read by wire.LegacyJournal.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	phoebedb "phoebedb"

	"phoebedb/internal/wire"
)

// crashCopy copies the WAL files of the running database in dir into a new
// directory, as a crash at this moment would leave them, and returns it.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WAL files in %s (%v)", dir, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "wal", filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverCopy opens the directory crashCopy made and recovers it.
func recoverCopy(t *testing.T, dir string) *phoebedb.DB {
	t.Helper()
	db := openDB(t, phoebedb.Options{Dir: crashCopy(t, dir)})
	if _, err := db.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db
}

// TestJournalDDLFirst: DDL over the wire reaches the log before its answer
// does, so the WAL copied from under the running server right after the
// answers — what a crash would leave — recovers the table and its index.
// A duplicate CREATE TABLE with other columns fails to apply and must leave
// no record: had it been logged, recovery would meet two definitions of j
// and stop with a schema mismatch.
func TestJournalDDLFirst(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, phoebedb.Options{Dir: dir})
	addr, _ := startWire(t, db, nil)
	c := dial(t, addr)
	for _, q := range []string{
		"CREATE TABLE j (a INT)",
		"INSERT INTO j VALUES (1)",
		"CREATE INDEX j_a ON j (a)",
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	if _, err := c.Exec("CREATE TABLE j (a INT, b STRING)"); err == nil {
		t.Fatal("duplicate CREATE TABLE succeeded")
	}

	got := recoverCopy(t, dir)
	tbl, err := got.Engine().Table("j")
	if err != nil || tbl.Index("j_a") == nil {
		t.Fatalf("after the crash: table j = %v, %v", tbl, err)
	}
	if n := len(tbl.Schema.Cols); n != 1 {
		t.Fatalf("after the crash: table j has %d columns, want 1", n)
	}
}

// TestJournalRejectsNewlines: a newline inside one statement is legal — the
// log carries the definition, not the text — but a statement that smuggles
// a second one in after a newline is refused whole, and nothing of it is
// logged.
func TestJournalRejectsNewlines(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, phoebedb.Options{Dir: dir})
	addr, _ := startWire(t, db, nil)
	c := dial(t, addr)
	if _, err := c.Exec("CREATE TABLE x (a INT)\n; DROP"); err == nil {
		t.Fatal("statement with a trailing second statement accepted")
	}
	if _, err := c.Exec("CREATE TABLE y (a INT,\n  b STRING)"); err != nil {
		t.Fatalf("multi-line CREATE TABLE: %v", err)
	}

	got := recoverCopy(t, dir)
	if _, err := got.Engine().Table("x"); err == nil {
		t.Fatal("the refused statement's table was recovered")
	}
	if tbl, err := got.Engine().Table("y"); err != nil || len(tbl.Schema.Cols) != 2 {
		t.Fatalf("after the crash: table y = %v, %v", tbl, err)
	}
}

// TestJournalLegacyFormat reads a plain-line schema file, as the releases
// before revocations wrote it, and a later one with a revoked statement.
func TestJournalLegacyFormat(t *testing.T) {
	for _, tc := range []struct {
		file string
		want []string
	}{
		{
			"CREATE TABLE old (a INT)\nCREATE INDEX old_a ON old (a)\n",
			[]string{"CREATE TABLE old (a INT)", "CREATE INDEX old_a ON old (a)"},
		},
		{
			"CREATE TABLE a (x INT)\nCREATE TABLE a (x INT)\n--revoke\nCREATE INDEX a_x ON a (x)\n",
			[]string{"CREATE TABLE a (x INT)", "CREATE INDEX a_x ON a (x)"},
		},
		{"", nil},
	} {
		if got := wire.LegacyJournal([]byte(tc.file)); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("LegacyJournal(%q) = %q, want %q", tc.file, got, tc.want)
		}
	}
}

// TestJournalTornTailTruncatedOnOpen: a crash mid-append left a final line
// without its newline. The journal was written before the statement ran, so
// that statement never executed and reading the file must drop it.
func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	got := wire.LegacyJournal([]byte("CREATE TABLE a (x INT)\nCREATE TABLE b"))
	if want := []string{"CREATE TABLE a (x INT)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LegacyJournal = %q, want %q", got, want)
	}
}
