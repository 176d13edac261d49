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
	session("create table users (id int, name string)", "insert users 1 ada")
	out := session("scan users", "create table tags (k int)", "insert tags 7")
	if !strings.Contains(out, `1: [1 "ada"]`) {
		t.Fatalf("second session's scan shows no row:\n%s", out)
	}
	if out := session("scan tags"); !strings.Contains(out, "1: [7]") {
		t.Fatalf("DDL of the second session was not recovered:\n%s", out)
	}
}
