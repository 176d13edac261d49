package phoebedb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// DDL must invalidate the shared plan cache: a new index or table can
// change any cached statement's access path. (Indexes must still be
// declared before data — the engine does not backfill — so the test
// exercises invalidation via both DDL routes and re-planning correctness.)
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE items (id INT, kind STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX items_pk ON items (id)")
	for i := 1; i <= 8; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO items VALUES (%d, 'k')", i))
	}

	// Warm the cache with an index point-lookup plan.
	res := execOrFatal(t, db, "SELECT * FROM items WHERE id = 3")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if db.planCache.Len() == 0 {
		t.Fatal("statement did not populate the plan cache")
	}

	// DDL through the SQL path clears the cache.
	execOrFatal(t, db, "CREATE TABLE extra_sql (a INT)")
	if n := db.planCache.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after CREATE TABLE, want 0", n)
	}

	// The same statement shape re-plans against the new catalog and still
	// answers correctly.
	res = execOrFatal(t, db, "SELECT * FROM items WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("post-DDL rows = %+v", res.Rows)
	}
	if db.planCache.Len() == 0 {
		t.Fatal("re-planned statement did not repopulate the cache")
	}

	// DDL through the programmatic API clears it too.
	if err := db.CreateTable("extra_api", NewSchema(Column{Name: "a", Type: TInt64})); err != nil {
		t.Fatal(err)
	}
	if n := db.planCache.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after CreateTable, want 0", n)
	}
	if err := db.CreateIndex("extra_api", "extra_api_pk", []string{"a"}, true); err != nil {
		t.Fatal(err)
	}
	if n := db.planCache.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after CreateIndex, want 0", n)
	}
}

// Concurrent sessions share one plan cache; hammering the same statement
// shapes from many goroutines must stay correct and actually hit.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE kv (id INT, v STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX kv_pk ON kv (id)")

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i + 1
				if _, err := db.ExecSQL(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", id, id)); err != nil {
					errs <- err
					return
				}
				res, err := db.ExecSQL(fmt.Sprintf("SELECT v FROM kv WHERE id = %d", id))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("v%d", id) {
					errs <- fmt.Errorf("id %d: rows = %+v", id, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := execOrFatal(t, db, "SELECT * FROM kv")
	if len(res.Rows) != workers*perWorker {
		t.Fatalf("rows = %d, want %d", len(res.Rows), workers*perWorker)
	}
	// Two shapes, workers*perWorker executions each: all but the first two
	// cacheable statements should have hit.
	if hits := db.planCache.Hits(); hits < int64(workers*perWorker) {
		t.Fatalf("plan cache hits = %d, expected at least %d", hits, workers*perWorker)
	}
}

// ExecSQLTx shares the database-wide cache with ExecSQL.
func TestPlanCacheSessionPath(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE t (id INT, v STRING)")
	execOrFatal(t, db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")

	hits := db.planCache.Hits()
	err := db.Execute(func(tx *Tx) error {
		for i := 1; i <= 2; i++ {
			res, err := db.ExecSQLTx(tx, fmt.Sprintf("SELECT v FROM t WHERE id = %d", i))
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 {
				return fmt.Errorf("id %d: %+v", i, res.Rows)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.planCache.Hits() != hits+1 {
		t.Fatalf("hits went %d -> %d; second identical shape should hit", hits, db.planCache.Hits())
	}
}

// Join and GROUP BY statements must be cacheable: the second execution
// with swapped literals is a cache hit that rebinds and still answers
// correctly.
func TestPlanCacheJoinAndGroupBy(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE c (cid INT, region STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX c_pk ON c (cid)")
	execOrFatal(t, db, "CREATE TABLE o (oid INT, cid INT, amt FLOAT)")
	execOrFatal(t, db, "INSERT INTO c VALUES (1, 'eu'), (2, 'us'), (3, 'ap')")
	execOrFatal(t, db, "INSERT INTO o VALUES (10, 1, 5), (11, 2, 7), (12, 1, 2), (13, 1, 7)")

	hits0, _ := db.PlanCacheStats()
	res := execOrFatal(t, db, "SELECT oid FROM o JOIN c ON o.cid = c.cid WHERE region = 'eu'")
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d, want 3", len(res.Rows))
	}
	if db.planCache.Len() == 0 {
		t.Fatal("join statement was not cached")
	}
	// Same shape, different literal: must hit and rebind.
	res = execOrFatal(t, db, "SELECT oid FROM o JOIN c ON o.cid = c.cid WHERE region = 'us'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 11 {
		t.Fatalf("rebound join rows = %+v, want [[11]]", res.Rows)
	}
	hits1, _ := db.PlanCacheStats()
	if hits1 != hits0+1 {
		t.Fatalf("join rebind: hits %d -> %d, want +1", hits0, hits1)
	}

	res = execOrFatal(t, db, "SELECT cid, count(*), sum(amt) FROM o WHERE amt = 7 GROUP BY cid ORDER BY cid")
	if len(res.Rows) != 2 {
		t.Fatalf("group rows = %+v", res.Rows)
	}
	res = execOrFatal(t, db, "SELECT cid, count(*), sum(amt) FROM o WHERE amt = 5 GROUP BY cid ORDER BY cid")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("rebound group rows = %+v", res.Rows)
	}
	hits2, _ := db.PlanCacheStats()
	if hits2 != hits1+1 {
		t.Fatalf("group rebind: hits %d -> %d, want +1", hits1, hits2)
	}
}

// A cached join that probes a composite index under its bound leading
// column keeps only the probe strategy across executions, never the
// bound value: the same statement with another constant returns that
// constant's rows.
func TestPlanCacheJoinBoundPrefix(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX stock_pk ON stock (s_w_id, s_i_id)")
	execOrFatal(t, db, "CREATE TABLE line (l_id INT, l_i_id INT)")
	execOrFatal(t, db, "INSERT INTO stock VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30), (2, 2, 40)")
	execOrFatal(t, db, "INSERT INTO line VALUES (7, 1), (8, 2), (9, 3)")

	const q = "SELECT l_id, s_quantity FROM line JOIN stock ON l_i_id = s_i_id WHERE s_w_id = %d"
	plan := execOrFatal(t, db, "EXPLAIN "+fmt.Sprintf(q, 1))
	if got := plan.Rows[1][0].S; !strings.Contains(got, "IndexNestedLoop Join") {
		t.Fatalf("join plan %q, want an index nested loop", got)
	}
	hits0, _ := db.PlanCacheStats()
	for _, tc := range []struct {
		w    int
		want string
	}{{1, "7:10 8:20"}, {2, "7:30 8:40"}, {1, "7:10 8:20"}, {3, ""}} {
		res := execOrFatal(t, db, fmt.Sprintf(q, tc.w))
		var got []string
		for _, r := range res.Rows {
			got = append(got, fmt.Sprintf("%d:%d", r[0].I, r[1].I))
		}
		sort.Strings(got)
		if strings.Join(got, " ") != tc.want {
			t.Errorf("s_w_id = %d: rows %q, want %q", tc.w, strings.Join(got, " "), tc.want)
		}
	}
	if hits, _ := db.PlanCacheStats(); hits != hits0+3 {
		t.Errorf("plan cache hits %d -> %d, want +3", hits0, hits)
	}
}

// Completing an online index backfill changes the available access paths,
// so it must flush the plan cache — through the SQL DDL route and the
// programmatic API alike — and re-planned statements must use the new
// index correctly.
func TestPlanCacheInvalidatedByBackfill(t *testing.T) {
	db := openTestDB(t, Options{})
	declareKV(t, db)
	insertKV(t, db, 500)

	res := execOrFatal(t, db, "SELECT id FROM kv WHERE grp = 3")
	want := len(res.Rows)
	if want == 0 || db.planCache.Len() == 0 {
		t.Fatalf("warmup: rows=%d cached=%d", want, db.planCache.Len())
	}

	// SQL route: CREATE INDEX backfills 500 rows, then invalidates.
	execOrFatal(t, db, "CREATE INDEX kv_grp ON kv (grp)")
	if n := db.planCache.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after online CREATE INDEX, want 0", n)
	}
	res = execOrFatal(t, db, "SELECT id FROM kv WHERE grp = 3")
	if len(res.Rows) != want {
		t.Fatalf("re-planned query: %d rows, want %d", len(res.Rows), want)
	}
	if db.planCache.Len() == 0 {
		t.Fatal("re-planned statement did not repopulate the cache")
	}

	// Programmatic route: online backfill through DB.CreateIndex.
	if err := db.CreateIndex("kv", "kv_id", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if n := db.planCache.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after DB.CreateIndex backfill, want 0", n)
	}
	res = execOrFatal(t, db, "SELECT grp FROM kv WHERE id = 42")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 42%7 {
		t.Fatalf("unique-index query after backfill: %+v", res.Rows)
	}
}
