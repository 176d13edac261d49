package core

import (
	"bytes"
	"errors"
	"testing"

	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
)

// TestCatalogRecordDecoding: a catalog record round-trips, and every
// truncation and every flipped byte of a valid one is an error, not a
// panic or a silently different definition.
func TestCatalogRecordDecoding(t *testing.T) {
	for _, c := range []catalogChange{
		{id: 3, name: "accounts", cols: accountSchema().Cols},
		{id: 3, index: true, name: "accounts_owner", keys: []int{1, 0}, unique: true},
	} {
		rec := encodeCatalog(c)
		got, err := decodeCatalog(rec)
		if err != nil || got.String() != c.String() || !bytes.Equal(encodeCatalog(got), rec) {
			t.Fatalf("round trip of %v = %v, %v", c, got, err)
		}
		for n := 0; n < len(rec); n++ {
			if _, err := decodeCatalog(rec[:n]); err == nil {
				t.Fatalf("%v truncated to %d of %d bytes decoded", c, n, len(rec))
			}
		}
		for i := range rec {
			bad := append([]byte(nil), rec...)
			bad[i] ^= 0x40
			if _, err := decodeCatalog(bad); err == nil {
				t.Fatalf("%v with byte %d flipped decoded", c, i)
			}
		}
	}
}

// TestRecoverRebuildsCatalog: with nothing declared, Recover brings back
// the tables and indexes the checkpoint image holds and those created in
// the log after it, with their rows.
func TestRecoverRebuildsCatalog(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	setupAccounts(t, e)
	w := begin(e, 0)
	w.Insert("accounts", acct(1, "ada", 10))
	w.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("tags", rel.NewSchema(rel.Column{Name: "name", Type: rel.TString})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("tags", "tags_name", []string{"name"}, true); err != nil {
		t.Fatal(err)
	}
	w = begin(e, 1)
	w.Insert("tags", rel.Row{rel.Str("red")})
	w.Insert("accounts", acct(2, "bob", 20))
	w.Commit()
	e.Close()

	e2 := openTestEngine(t, Config{Dir: dir, Slots: 4})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	r := begin(e2, 0)
	defer r.Rollback()
	for _, probe := range []struct {
		table, index string
		key          rel.Value
	}{
		{"accounts", "accounts_pk", rel.Int(1)},
		{"accounts", "accounts_owner", rel.Str("bob")},
		{"tags", "tags_name", rel.Str("red")},
	} {
		if _, _, found, err := r.GetByIndex(probe.table, probe.index, probe.key); err != nil || !found {
			t.Fatalf("%s.%s[%v] after recovery: found=%v err=%v", probe.table, probe.index, probe.key, found, err)
		}
	}
}

// TestRecoverRejectsMismatchedDeclaration: declaring before Recover is
// optional, but a declaration must agree with the recovered catalog — in
// columns, id and index shape — or Recover fails naming both definitions.
func TestRecoverRejectsMismatchedDeclaration(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	setupAccounts(t, e)
	e.Close()
	for what, declare := range map[string]func(e *Engine){
		"columns": func(e *Engine) {
			e.CreateTable("accounts", rel.NewSchema(rel.Column{Name: "id", Type: rel.TString}))
		},
		"id": func(e *Engine) {
			e.CreateTable("other", accountSchema())
			e.CreateTable("accounts", accountSchema())
		},
		"index": func(e *Engine) {
			e.CreateTable("accounts", accountSchema())
			e.CreateIndex("accounts", "accounts_owner", []string{"owner"}, true)
		},
	} {
		e, err := Open(Config{Dir: dir, Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		declare(e)
		var mismatch *SchemaMismatchError
		if _, err := e.Recover(); !errors.As(err, &mismatch) || mismatch.Declared == "" || mismatch.Recovered == "" {
			t.Fatalf("%s: Recover = %v, want *SchemaMismatchError", what, err)
		}
		e.Close()
	}
}

// TestCrashMidBackfillRecoversIndexAbsent: an online CREATE INDEX is
// logged only when its backfill completes, so a crash in the middle
// recovers the table without the index, and the name is free again.
func TestCrashMidBackfillRecoversIndexAbsent(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 0; i < 20; i++ {
		w.Insert("accounts", acct(i, "o", float64(i)))
	}
	w.Commit()
	if err := fault.Enable(fault.SQLIndexBackfill, "panic@5"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); !fault.IsCrash(r) {
				t.Fatalf("backfill did not crash (recover=%v)", r)
			}
		}()
		e.CreateIndexOnline("accounts", "accounts_bal", []string{"balance"}, false, onSlot1(e))
	}()
	fault.Reset()
	// Abandon e without Close: the crash left it mid-build.

	e2 := openTestEngine(t, Config{Dir: dir, Slots: 4})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	tbl, err := e2.Table("accounts")
	if err != nil || tbl.Index("accounts_pk") == nil || tbl.Index("accounts_bal") != nil {
		t.Fatalf("after recovery: table %v (%v), want accounts_pk and no accounts_bal", tbl, err)
	}
	if _, err := e2.CreateIndexOnline("accounts", "accounts_bal", []string{"balance"}, false, onSlot1(e2)); err != nil {
		t.Fatalf("rebuilding the index after recovery: %v", err)
	}
}

// onSlot1 runs a backfill transaction on slot 1, committing on success.
func onSlot1(e *Engine) func(fn func(tx *Tx) error) error {
	return func(fn func(tx *Tx) error) error {
		tx := begin(e, 1)
		if err := fn(tx); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}
}
