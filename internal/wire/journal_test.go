package wire

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	phoebedb "phoebedb"

	"phoebedb/internal/core"
)

func TestJournalExecOrdering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schema.sql")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// The statement must be on disk BEFORE apply runs (journal-first).
	err = j.Exec("CREATE TABLE a (x INT)", func() error {
		raw, rerr := os.ReadFile(path)
		if rerr != nil || !strings.Contains(string(raw), "CREATE TABLE a") {
			t.Fatalf("statement not journaled before apply: %q (%v)", raw, rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A failing apply leaves the statement revoked, and Exec reports the
	// apply error.
	applyErr := errors.New("catalog says no")
	err = j.Exec("CREATE TABLE b (x INT)", func() error { return applyErr })
	if !errors.Is(err, applyErr) {
		t.Fatalf("err = %v", err)
	}

	var replayed []string
	n, err := j.Replay(func(stmt string) error {
		replayed = append(replayed, stmt)
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("replay = (%d, %v)", n, err)
	}
	if len(replayed) != 1 || !strings.HasPrefix(replayed[0], "CREATE TABLE a") {
		t.Fatalf("replayed = %v", replayed)
	}
}

// TestJournalLegacyFormat replays a plain-line schema file written by
// the pre-journal releases unchanged.
func TestJournalLegacyFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schema.sql")
	legacy := "CREATE TABLE old (a INT)\nCREATE INDEX old_a ON old (a)\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var replayed []string
	n, err := j.Replay(func(stmt string) error {
		replayed = append(replayed, stmt)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("replay = (%d, %v)", n, err)
	}
	if replayed[0] != "CREATE TABLE old (a INT)" || replayed[1] != "CREATE INDEX old_a ON old (a)" {
		t.Fatalf("replayed = %v", replayed)
	}
}

func TestJournalRejectsNewlines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schema.sql")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Exec("CREATE TABLE x (a INT)\n; DROP", func() error { return nil }); err == nil {
		t.Fatal("newline statement journaled")
	}
}

// TestJournalTornTailTruncatedOnOpen: a crash mid-append leaves a final
// line without its newline. Journal-first means that statement never
// executed, so reopening must cut it off — otherwise the next statement is
// glued onto it and both are lost to replay.
func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schema.sql")
	if err := os.WriteFile(path, []byte("CREATE TABLE a (x INT)\nCREATE TABLE b"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Exec("CREATE TABLE c (x INT)", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	var replayed []string
	if _, err := j.Replay(func(stmt string) error {
		replayed = append(replayed, stmt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[0] != "CREATE TABLE a (x INT)" || replayed[1] != "CREATE TABLE c (x INT)" {
		t.Fatalf("replayed = %q", replayed)
	}
}

// TestJournalReplayFailsFast: a journaled statement the engine refuses must
// stop the replay with a typed error — the alternative is a server that
// opens with half its schema — while a statement the catalog already holds
// (the one class of failure a replay expects) is skipped.
func TestJournalReplayFailsFast(t *testing.T) {
	db, err := phoebedb.Open(phoebedb.Options{Dir: t.TempDir(), Workers: 1, SlotsPerWorker: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	apply := func(stmt string) error {
		_, err := db.ExecSQL(stmt)
		return err
	}
	path := filepath.Join(t.TempDir(), "schema.sql")
	lines := "CREATE TABLE a (x INT)\n" +
		"CREATE TABLE a (x INT)\n" + // already there: skipped
		"CREATE INDEX a_x ON a (x)\n" +
		"CREATE INDEX a_x ON a (x)\n" + // already there: skipped
		"CREATE INDEX ghost_x ON ghost (x)\n" + // no such table: fatal
		"CREATE TABLE b (x INT)\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	n, err := j.Replay(apply)
	var rerr *ReplayError
	if !errors.As(err, &rerr) || n != 4 {
		t.Fatalf("replay = (%d, %v), want 4 applied and a *ReplayError", n, err)
	}
	if rerr.Stmt != "CREATE INDEX ghost_x ON ghost (x)" || !errors.Is(err, core.ErrNoSuchTable) {
		t.Fatalf("replay error = %v (stmt %q)", err, rerr.Stmt)
	}
	if _, err := db.ExecSQL("SELECT * FROM b"); err == nil {
		t.Fatal("replay went on past the rejected statement")
	}
}
