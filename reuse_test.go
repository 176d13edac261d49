package phoebedb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"phoebedb/internal/core"
)

// Every statement on a slot reuses that slot's transaction state and
// statement scratch. A Result handed to the caller must own its rows and
// column list: it reads the same after the slot has run a thousand more
// statements over the buffers it was built from.
func TestResultOwnsItsRows(t *testing.T) {
	// One worker, one slot: every statement below runs on the same Tx and
	// the same scratch.
	db := openTestDB(t, Options{Workers: 1, SlotsPerWorker: 1})
	execOrFatal(t, db, "CREATE TABLE item (id INT, name STRING, price FLOAT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX item_pk ON item (id)")
	for i := 0; i < 50; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO item VALUES (%d, 'item-%d', %d.5)", i, i, i))
	}
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}

	point := execOrFatal(t, db, "SELECT * FROM item WHERE id = 7")       // streaming, SELECT *
	proj := execOrFatal(t, db, "SELECT name, id FROM item WHERE id = 8") // streaming, projected
	shaped := execOrFatal(t, db, "SELECT id, name FROM item WHERE id < 5 ORDER BY id")
	agg := execOrFatal(t, db, "SELECT COUNT(*), MAX(price) FROM item")
	tx := sess.Begin(ReadCommitted)
	inTx, err := db.ExecSQLTx(tx, "SELECT name FROM item WHERE id = 9")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	kept := []*SQLResult{&point, &proj, &shaped, &agg, &inTx}
	var want []SQLResult
	for _, r := range kept {
		want = append(want, cloneResult(*r))
	}
	if point.Rows[0][1].S != "item-7" || proj.Rows[0][0].S != "item-8" || len(shaped.Rows) != 5 ||
		agg.Rows[0][0].I != 50 || inTx.Rows[0][0].S != "item-9" {
		t.Fatalf("unexpected results: %+v %+v %+v %+v %+v", point, proj, shaped, agg, inTx)
	}

	for i := 0; i < 1000; i++ {
		id := i % 50
		switch i % 4 {
		case 0:
			execOrFatal(t, db, fmt.Sprintf("SELECT * FROM item WHERE id = %d", id))
		case 1:
			execOrFatal(t, db, fmt.Sprintf("UPDATE item SET name = 'renamed-%d' WHERE id = %d", i, id))
		case 2:
			execOrFatal(t, db, fmt.Sprintf("SELECT name, id FROM item WHERE id = %d", id))
		case 3:
			tx := sess.Begin(ReadCommitted)
			if _, err := db.ExecSQLTx(tx, fmt.Sprintf("SELECT name FROM item WHERE id = %d", id)); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
		}
	}
	for i, r := range kept {
		if !reflect.DeepEqual(*r, want[i]) {
			t.Errorf("result %d changed under later statements:\n got %+v\nwant %+v", i, *r, want[i])
		}
	}
}

func cloneResult(r SQLResult) SQLResult {
	out := SQLResult{Affected: r.Affected, Columns: append([]string(nil), r.Columns...)}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, row.Clone())
	}
	return out
}

// A Session's Begin returns the slot's one Tx. Used after Commit it must
// still answer ErrTxnDone, and a second Begin while the first transaction
// is open must fail loudly instead of resetting it.
func TestSessionHandleAfterCommit(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE kv (id INT, v INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX kv_pk ON kv (id)")
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	tx := sess.Begin(ReadCommitted)
	if _, err := db.ExecSQLTx(tx, "INSERT INTO kv VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQLTx(tx, "INSERT INTO kv VALUES (2, 2)"); !errors.Is(err, core.ErrTxnDone) {
		t.Fatalf("statement on a committed handle: %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTxnDone) {
		t.Fatalf("second Commit: %v, want ErrTxnDone", err)
	}
	if res := execOrFatal(t, db, "SELECT * FROM kv"); len(res.Rows) != 1 {
		t.Fatalf("rows = %+v, want the one committed row", res.Rows)
	}

	open := sess.Begin(ReadCommitted)
	defer open.Rollback()
	defer func() {
		if recover() == nil {
			t.Fatal("Begin on a session whose transaction is still open did not panic")
		}
	}()
	sess.Begin(ReadCommitted)
}
