package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	phoebedb "phoebedb"
)

// TestImportParentSchemaJournal: testdata/parent is a data directory as the
// release before catalog records wrote it — schema.sql holding kv, its
// unique index, a revoked duplicate CREATE TABLE kv, then tags and its
// index; a version 2 checkpoint image of kv 1-20; and a WAL holding tags's
// rows, kv 21-25, an update of kv 7 and a delete of kv 3. The first
// recovery imports the journal and logs its schema; the second needs
// neither the file nor a declaration.
func TestImportParentSchemaJournal(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir("testdata/parent", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		sub, _ := filepath.Rel("testdata/parent", p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, sub), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, sub), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A crash tearing the journal's last append leaves a line without its
	// newline; that statement never ran, so the import must skip it.
	f, err := os.OpenFile(filepath.Join(dir, "schema.sql"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("CREATE TABLE torn (a IN")
	f.Close()

	for round := 1; round <= 2; round++ {
		db, err := phoebedb.Open(phoebedb.Options{Dir: dir, Workers: 1, SlotsPerWorker: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recoverDir(db, dir); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "schema.sql")); !os.IsNotExist(err) {
			t.Fatalf("round %d: schema.sql still present (%v)", round, err)
		}
		kv, err := db.ExecSQL("SELECT k, v FROM kv")
		if err != nil || len(kv.Rows) != 24 {
			t.Fatalf("round %d: kv = %d rows, %v", round, len(kv.Rows), err)
		}
		for _, row := range kv.Rows {
			if k := row[0].I; k == 3 || k == 7 && row[1].S != "seven" || k != 7 && row[1].S != "v"+row[0].String() {
				t.Fatalf("round %d: kv row %v", round, row)
			}
		}
		tags, err := db.ExecSQL("SELECT name FROM tags WHERE name = 'gamma'")
		if err != nil || len(tags.Rows) != 1 {
			t.Fatalf("round %d: tags = %+v, %v", round, tags.Rows, err)
		}
		if tbl, err := db.Engine().Table("tags"); err != nil || tbl.Index("tags_name") == nil {
			t.Fatalf("round %d: tags index missing (%v)", round, err)
		}
		if _, err := db.Engine().Table("torn"); err == nil {
			t.Fatalf("round %d: the torn statement was imported", round)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportStopsAtRefusedStatement: a journal statement the catalog
// refuses stops the import, naming it, and leaves schema.sql in place for
// the operator instead of serving half a schema.
func TestImportStopsAtRefusedStatement(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "schema.sql")
	if err := os.WriteFile(journal, []byte("CREATE TABLE a (x INT)\nCREATE INDEX a_y ON a (y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := phoebedb.Open(phoebedb.Options{Dir: dir, Workers: 1, SlotsPerWorker: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := recoverDir(db, dir); err == nil || !strings.Contains(err.Error(), "a_y") {
		t.Fatalf("import = %v, want an error naming the refused statement", err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("schema.sql removed after a failed import: %v", err)
	}
}
