package phoebedb

import (
	"fmt"
	"testing"

	"phoebedb/internal/rel"
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
// TxnMeta and its done channel (live while a version points at them), and
// the write path's page-latch callback. A ceiling, pinned where this change
// left it — lower it when one of those goes.
const updateAllocFloor = 5

func TestAllocPoolSessionExecSQL(t *testing.T) {
	// The sampler and the archiver allocate on their own clocks.
	db := openTestDB(t, Options{ASHSampleInterval: -1})
	execOrFatal(t, db, "CREATE TABLE acct (id INT, bal INT, name STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	for i := 0; i < 64; i++ {
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, 'n%d')", i, i, i))
	}
	var sel, upd float64
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
	})
	if sink.cols != 3 || sink.rows < 200 {
		t.Fatalf("sink saw %d columns, %d rows", sink.cols, sink.rows)
	}
	if sel != 0 {
		t.Errorf("autocommit point SELECT allocates %.1f objects per statement, want 0", sel)
	}
	if upd > updateAllocFloor {
		t.Errorf("autocommit point UPDATE allocates %.1f objects per statement, want <= %d", upd, updateAllocFloor)
	}
	t.Logf("allocs per statement: SELECT %.1f, UPDATE %.1f", sel, upd)
}
