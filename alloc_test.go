package phoebedb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/table"
)

// The allocation gates where the traffic is: on the wire an autocommit
// statement IS a transaction, so the budget is set on PoolSession.ExecSQL —
// Begin, plan-cache hit, bind, scan, row sink, Commit — not inside one
// transaction (internal/core's gates cover that).

// countSink is a row sink that keeps nothing.
type countSink struct{ cols, rows int }

func (s *countSink) Header(names []string) { s.cols = len(names) }
func (s *countSink) Row(rel.Row) bool      { s.rows++; return true }

// inPoolSession runs fn as one session task and waits for it.
func inPoolSession(t *testing.T, db *DB, fn func(ps *PoolSession)) {
	t.Helper()
	done := make(chan struct{})
	ps := db.NewPoolSession(func(ps *PoolSession) {
		defer close(done)
		fn(ps)
	})
	if err := ps.Submit(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// updateAllocFloor is what an autocommit UPDATE by primary key still
// allocates on a plan-cache hit: the UNDO record and its before-image
// delta (both live until GC reclaims the version), the transaction's
// TxnMeta (live while a version points at it; its done channel is made
// only by a waiter), and the write path's page-latch callback. A ceiling,
// pinned where this change left it — lower it when one of those goes. It
// holds as well when GC has collected the page's twin table since its last
// write (TestAllocUpdateCollectedPage): the page keeps the emptied table.
const updateAllocFloor = 4

// foldAllocCeiling and limitAllocCeiling pin the cached in-scan count/sum
// and the streaming LIMIT where this gate was introduced: output column
// names and fold specs (fold), and the full scan's engine-side state.
const (
	foldAllocCeiling  = 18
	limitAllocCeiling = 4
)

func TestAllocPoolSessionExecSQL(t *testing.T) {
	// The sampler and the archiver allocate on their own clocks.
	db := openTestDB(t, Options{ASHSampleInterval: -1})
	execOrFatal(t, db, "CREATE TABLE acct (id INT, bal INT, name STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	for i := 0; i < 64; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, 'n%d')", i, i, i))
	}
	var sel, upd, fold, limit float64
	var sink countSink
	inPoolSession(t, db, func(ps *PoolSession) {
		run := func(q string) {
			if _, err := ps.ExecSQL(q, &sink); err != nil {
				t.Error(err)
			}
		}
		// First executions fill the plan cache, the hint and the scratch.
		run("SELECT * FROM acct WHERE id = 7")
		run("UPDATE acct SET bal = 1 WHERE id = 7")
		sel = testing.AllocsPerRun(200, func() { run("SELECT * FROM acct WHERE id = 9") })
		upd = testing.AllocsPerRun(200, func() { run("UPDATE acct SET bal = 5 WHERE id = 9") })
		if sink.cols != 3 || sink.rows < 200 {
			t.Fatalf("sink saw %d columns, %d rows", sink.cols, sink.rows)
		}
		// The in-scan count/sum over a fixed-width range and a streaming
		// LIMIT: the shapes the cold_read and tpcc workloads send.
		const foldQ = "SELECT count(*), sum(bal) FROM acct WHERE bal >= 10 AND bal <= 40"
		const limitQ = "SELECT * FROM acct WHERE bal >= 5 LIMIT 3"
		run(foldQ)
		run(limitQ)
		fold = testing.AllocsPerRun(200, func() { run(foldQ) })
		limit = testing.AllocsPerRun(200, func() { run(limitQ) })
	})
	if sel != 0 {
		t.Errorf("autocommit point SELECT allocates %.1f objects per statement, want 0", sel)
	}
	if upd > updateAllocFloor {
		t.Errorf("autocommit point UPDATE allocates %.1f objects per statement, want <= %d", upd, updateAllocFloor)
	}
	if fold > foldAllocCeiling {
		t.Errorf("in-scan count/sum allocates %.1f objects per statement, want <= %d", fold, foldAllocCeiling)
	}
	if limit > limitAllocCeiling {
		t.Errorf("streaming LIMIT 3 allocates %.1f objects per statement, want <= %d", limit, limitAllocCeiling)
	}
	t.Logf("allocs per statement: SELECT %.1f, UPDATE %.1f, fold %.1f, LIMIT %.1f", sel, upd, fold, limit)
}

// TestAllocUpdateCollectedPage is the UPDATE gate shaped like point_update
// traffic, where writes spread over many pages and GC collects a page's
// twin table between two writes to it: before every measured UPDATE a GC
// round has reclaimed the previous version and emptied the page's table.
// Only the UPDATE is counted.
func TestAllocUpdateCollectedPage(t *testing.T) {
	db := openTestDB(t, Options{ASHSampleInterval: -1})
	execOrFatal(t, db, "CREATE TABLE acct (id INT, bal INT, name STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	for i := 0; i < 64; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, 'n%d')", i, i, i))
	}
	tbl, err := db.engine.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	var rid RowID
	found := false
	if err := db.Execute(func(tx *Tx) error {
		return tx.ScanTable("acct", func(r RowID, row Row) bool {
			if row[0].I == 9 {
				rid, found = r, true
			}
			return true
		})
	}); err != nil || !found {
		t.Fatalf("row with id 9 not found: %v", err)
	}
	twinEntries := func() int {
		n := -1
		tbl.Store.WithRow(rid, false, nil, func(h table.Handle) error {
			n = 0
			if tt := h.TwinTable(false); tt != nil {
				n = tt.Len()
			}
			return nil
		})
		return n
	}
	const runs = 200
	var mallocs uint64
	var sink countSink
	inPoolSession(t, db, func(ps *PoolSession) {
		run := func(q string) {
			if _, err := ps.ExecSQL(q, &sink); err != nil {
				t.Error(err)
			}
		}
		run("UPDATE acct SET bal = 1 WHERE id = 9") // plan cache, scratch
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			if n := db.engine.CollectGarbage(); n == 0 {
				t.Errorf("run %d: GC reclaimed no version", i)
				return
			}
			if n := twinEntries(); n != 0 {
				t.Errorf("run %d: the page's twin table holds %d entries after GC", i, n)
				return
			}
			q := "UPDATE acct SET bal = 5 WHERE id = 9"
			runtime.ReadMemStats(&before)
			run(q)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
	})
	if t.Failed() {
		return
	}
	// Averaged as testing.AllocsPerRun does, in whole objects.
	upd := mallocs / runs
	if upd > updateAllocFloor {
		t.Errorf("autocommit point UPDATE of a collected page allocates %d objects per statement, want <= %d", upd, updateAllocFloor)
	}
	t.Logf("allocs per UPDATE after a GC round: %d (%d over %d runs)", upd, mallocs, runs)
}

// TestAllocExplainAnalyzeFold checks that EXPLAIN ANALYZE of an in-scan
// aggregate runs the fold itself: its allocations do not grow with the
// number of qualifying rows, as they would if the traced statement cloned
// each row into a gather.
func TestAllocExplainAnalyzeFold(t *testing.T) {
	db := openTestDB(t, Options{ASHSampleInterval: -1})
	execOrFatal(t, db, "CREATE TABLE big (seq INT, hits INT)")
	for i := 0; i < 640; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%7))
	}
	allocs := func(hi int) float64 {
		q := fmt.Sprintf("EXPLAIN ANALYZE SELECT count(*), sum(hits) FROM big WHERE seq >= 0 AND seq < %d", hi)
		res := execOrFatal(t, db, q)
		if got := res.Rows[1][0].S; !strings.HasPrefix(strings.TrimSpace(got), "-> Aggregate (in scan) (actual rows=1 ") {
			t.Fatalf("%s: aggregate node %q", q, got)
		}
		return testing.AllocsPerRun(20, func() { execOrFatal(t, db, q) })
	}
	small, large := allocs(64), allocs(640)
	if d := large - small; d >= 10 || d <= -10 {
		t.Errorf("EXPLAIN ANALYZE fold allocates %.1f objects over 64 rows and %.1f over 640", small, large)
	}
	t.Logf("EXPLAIN ANALYZE fold allocs: %.1f over 64 rows, %.1f over 640", small, large)
}
