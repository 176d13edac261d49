package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// A table created and a row inserted in one shell session are there in the
// next one on the same directory — which openDB creates when it is missing
// — and DDL typed in the second session lasts into a third.
func TestReopenRecoversTablesAndRows(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	session := func(lines ...string) string {
		t.Helper()
		var out strings.Builder
		db, err := openDB(dir, &out)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, line := range lines {
			if err := run(db, &out, line); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		return out.String()
	}
	session("CREATE TABLE users (id INT, name STRING)", "INSERT INTO users VALUES (1, 'ada')")
	out := session("SELECT * FROM users", "CREATE TABLE tags (k INT)", "INSERT INTO tags VALUES (7)")
	if !strings.Contains(out, "1 | \"ada\"\n(1 rows)") {
		t.Fatalf("second session's SELECT shows no row:\n%s", out)
	}
	if out := session("SELECT * FROM tags"); !strings.Contains(out, "7\n(1 rows)") {
		t.Fatalf("DDL of the second session was not recovered:\n%s", out)
	}
}

// A line that is neither an engine command nor a statement the SQL parser
// accepts is one error, never a panic — a bare word or a statement cut
// short included.
func TestRunRefusesMalformedLines(t *testing.T) {
	var out strings.Builder
	db, err := openDB(filepath.Join(t.TempDir(), "db"), &out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := run(db, &out, "CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"scan",
		"insert",
		"get t",
		"delete t",
		"create",
		"SELEKT * FROM t",
	} {
		t.Run(line, func(t *testing.T) {
			if err := run(db, &out, line); err == nil {
				t.Fatalf("%q: no error", line)
			}
		})
	}
}
