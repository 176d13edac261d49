package phoebedb

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"phoebedb/internal/core"
)

func execOrFatal(t *testing.T, db *DB, q string) SQLResult {
	t.Helper()
	res, err := db.ExecSQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func TestSQLEndToEnd(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE users (id INT, name STRING, city STRING, score FLOAT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX users_pk ON users (id)")
	execOrFatal(t, db, "CREATE INDEX users_city ON users (city)")

	res := execOrFatal(t, db, "INSERT INTO users VALUES (1, 'ada', 'london', 99.5), (2, 'grace', 'arlington', 97), (3, 'barbara', 'london', 98)")
	if res.Affected != 3 {
		t.Fatalf("inserted %d", res.Affected)
	}

	// Point lookup through the unique index.
	res = execOrFatal(t, db, "SELECT name, score FROM users WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "grace" || res.Rows[0][1].F != 97 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "score" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Secondary index with a residual predicate.
	res = execOrFatal(t, db, "SELECT name FROM users WHERE city = 'london' AND score = 98.0")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "barbara" {
		t.Fatalf("rows = %+v", res.Rows)
	}

	// Full scan + LIMIT.
	res = execOrFatal(t, db, "SELECT * FROM users LIMIT 2")
	if len(res.Rows) != 2 || len(res.Columns) != 4 {
		t.Fatalf("limit scan = %+v", res)
	}

	// UPDATE through the planner.
	res = execOrFatal(t, db, "UPDATE users SET score = 100 WHERE id = 1")
	if res.Affected != 1 {
		t.Fatalf("updated %d", res.Affected)
	}
	res = execOrFatal(t, db, "SELECT score FROM users WHERE id = 1")
	if res.Rows[0][0].F != 100 {
		t.Fatalf("score = %v", res.Rows[0][0])
	}

	// DELETE and verify.
	res = execOrFatal(t, db, "DELETE FROM users WHERE city = 'london'")
	if res.Affected != 2 {
		t.Fatalf("deleted %d", res.Affected)
	}
	res = execOrFatal(t, db, "SELECT * FROM users")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "grace" {
		t.Fatalf("remaining = %+v", res.Rows)
	}
}

func TestSQLTransactional(t *testing.T) {
	// A failing statement inside Execute rolls back the whole transaction.
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE t (id INT, v STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX t_pk ON t (id)")
	execOrFatal(t, db, "INSERT INTO t VALUES (1, 'keep')")

	err := db.Execute(func(tx *Tx) error {
		if _, err := db.ExecSQLTx(tx, "INSERT INTO t VALUES (2, 'gone')"); err != nil {
			return err
		}
		// Duplicate key: the whole transaction must roll back.
		_, err := db.ExecSQLTx(tx, "INSERT INTO t VALUES (1, 'dup')")
		return err
	})
	if err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	res := execOrFatal(t, db, "SELECT * FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("rollback leaked rows: %+v", res.Rows)
	}
	// DDL through ExecSQLTx is rejected.
	db.Execute(func(tx *Tx) error {
		if _, err := db.ExecSQLTx(tx, "CREATE TABLE nope (a INT)"); err == nil {
			t.Error("transactional DDL accepted")
		}
		return nil
	})
}

func TestSQLErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.ExecSQL("SELEC oops"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := db.ExecSQL("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("err = %v", err)
	}
}

func TestSQLConcurrent(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE counters (id INT, n INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX counters_pk ON counters (id)")
	execOrFatal(t, db, "INSERT INTO counters VALUES (1, 0)")
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			_, err := db.ExecSQL("INSERT INTO counters VALUES (" + itoa(i+2) + ", 1)")
			done <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res := execOrFatal(t, db, "SELECT * FROM counters")
	if len(res.Rows) != 21 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// Concurrent autocommit inserts of one key into a unique index admit one
// row: 4 goroutines each insert the same 2,000 keys, all starting each key
// together, and each key ends with exactly one successful insert and one
// row, the others failing with ErrDuplicate.
func TestConcurrentUniqueInsertsAdmitOneRow(t *testing.T) {
	const writers, keys = 4, 2000
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE t (id INT, g INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX t_pk ON t (id)")
	wins := make([][keys]bool, writers)
	errs := make(chan error, writers)
	var ready [keys]sync.WaitGroup // every writer starts key k at once
	for k := range ready {
		ready[k].Add(writers)
	}
	for w := 0; w < writers; w++ {
		go func(w int) {
			for k := 0; k < keys; k++ {
				ready[k].Done()
				ready[k].Wait()
				_, err := db.ExecSQL("INSERT INTO t VALUES (" + itoa(k) + ", " + itoa(w) + ")")
				if err != nil && !errors.Is(err, core.ErrDuplicate) {
					errs <- fmt.Errorf("writer %d, key %d: %w", w, k, err)
					return
				}
				wins[w][k] = err == nil
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < keys; k++ {
		n := 0
		for w := range wins {
			if wins[w][k] {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("key %d: %d successful inserts, want 1", k, n)
		}
	}
	if res := execOrFatal(t, db, "SELECT count(*) FROM t"); res.Rows[0][0].I != keys {
		t.Fatalf("count(*) = %v, want %d", res.Rows[0][0], keys)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSQLNaNResidual: a NaN stored through the API answers a SQL float
// predicate IEEE-style on the row path too (an index scan checks its
// residual per row): it satisfies only "!=".
func TestSQLNaNResidual(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE m (id INT, v FLOAT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX m_pk ON m (id)")
	if err := db.Execute(func(tx *Tx) error {
		_, err := tx.Insert("m", Row{Int(1), Float(math.NaN())})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		"SELECT id FROM m WHERE id = 1 AND v = 5":  0,
		"SELECT id FROM m WHERE id = 1 AND v >= 5": 0,
		"SELECT id FROM m WHERE id = 1 AND v < 5":  0,
		"SELECT id FROM m WHERE id = 1 AND v != 5": 1,
	} {
		if got := len(execOrFatal(t, db, q).Rows); got != want {
			t.Errorf("%s: %d rows, want %d", q, got, want)
		}
	}
}
