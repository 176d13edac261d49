package phoebedb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"phoebedb/internal/table"
)

// statRow finds the phoebe_stat_statements row whose statement column
// contains sub, returning the projected values.
func statRow(t *testing.T, db *DB, cols, sub string) []int64 {
	t.Helper()
	res := execOrFatal(t, db, "SELECT statement, "+cols+" FROM phoebe_stat_statements")
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, sub) {
			out := make([]int64, len(r)-1)
			for i, v := range r[1:] {
				out[i] = v.I
			}
			return out
		}
	}
	t.Fatalf("no phoebe_stat_statements row matching %q in %d rows", sub, len(res.Rows))
	return nil
}

func TestStatStatementsAggregates(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE acct (id INT, bal INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	execOrFatal(t, db, "INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30)")

	// Two executions with different literals share one fingerprint.
	execOrFatal(t, db, "SELECT bal FROM acct WHERE id = 1")
	execOrFatal(t, db, "SELECT bal FROM acct WHERE id = 2")

	v := statRow(t, db, "calls, rows, total_us, mean_us, p95_us", "select bal from acct")
	if v[0] != 2 {
		t.Fatalf("calls = %d, want 2", v[0])
	}
	if v[1] != 2 {
		t.Fatalf("rows = %d, want 2 (one row per call)", v[1])
	}
	if v[2] <= 0 || v[3] <= 0 || v[4] < 0 {
		t.Fatalf("total/mean/p95 = %v", v[1:])
	}

	// The insert's row count is its affected count.
	if v := statRow(t, db, "calls, rows", "insert into acct"); v[0] != 1 || v[1] != 3 {
		t.Fatalf("insert stats = %v", v)
	}

	// Errors are counted without charging rows.
	if _, err := db.ExecSQL("SELECT bal FROM missing WHERE id = 1"); err == nil {
		t.Fatal("select on missing table succeeded")
	}
	if v := statRow(t, db, "calls, errors", "select bal from missing"); v[0] != 1 || v[1] != 1 {
		t.Fatalf("error stats = %v", v)
	}

	// The full wait breakdown projects per-event columns.
	res := execOrFatal(t, db,
		"SELECT statement, buf_misses, wal_bytes, tuple_lock_us, buffer_io_us, wal_flush_us FROM phoebe_stat_statements")
	if len(res.Rows) == 0 {
		t.Fatal("no statement rows")
	}
}

func TestExecuteTaggedAttribution(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE kv (k INT, v INT)")

	for i := 0; i < 3; i++ {
		if err := db.ExecuteTagged("app.Seed", func(tx *Tx) error {
			_, err := db.ExecSQLTx(tx, "INSERT INTO kv VALUES (1, 2)")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if v := statRow(t, db, "calls, errors, total_us", "app.Seed"); v[0] != 3 || v[1] != 0 || v[2] <= 0 {
		t.Fatalf("tagged stats = %v", v)
	}
}

// TestASHCapturesTupleLockWait holds a row lock in one transaction while
// a second, tagged transaction blocks updating the same row; the 1ms ASH
// sampler must observe the blocked session in tuple_lock, and the tagged
// statement's aggregate must show tuple-lock wait time.
func TestASHCapturesTupleLockWait(t *testing.T) {
	db := openTestDB(t, Options{ASHSampleInterval: time.Millisecond})
	execOrFatal(t, db, "CREATE TABLE acct (id INT, bal INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (id)")
	execOrFatal(t, db, "INSERT INTO acct VALUES (1, 10)")

	locked := make(chan struct{})
	release := make(chan struct{})
	holderErr := make(chan error, 1)
	go func() {
		holderErr <- db.Execute(func(tx *Tx) error {
			if _, err := db.ExecSQLTx(tx, "UPDATE acct SET bal = 11 WHERE id = 1"); err != nil {
				return err
			}
			close(locked)
			<-release
			return nil
		})
	}()
	<-locked

	blockedErr := make(chan error, 1)
	go func() {
		blockedErr <- db.ExecuteTagged("test.Blocked", func(tx *Tx) error {
			_, err := db.ExecSQLTx(tx, "UPDATE acct SET bal = 12 WHERE id = 1")
			return err
		})
	}()

	// Let the sampler observe the blocked session (1ms cadence, ~80
	// sampling opportunities), then release the lock.
	time.Sleep(80 * time.Millisecond)
	close(release)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-blockedErr; err != nil {
		t.Fatalf("blocked txn: %v", err)
	}

	res := execOrFatal(t, db,
		"SELECT slot, statement FROM phoebe_stat_activity_history WHERE wait_event = 'tuple_lock'")
	if len(res.Rows) == 0 {
		t.Fatal("no tuple_lock samples in ASH")
	}
	if res.Rows[0][1].S == "" {
		t.Error("tuple_lock sample has no statement attribution")
	}
	if v := statRow(t, db, "calls, tuple_lock_us", "test.Blocked"); v[0] != 1 || v[1] <= 0 {
		t.Fatalf("blocked statement stats = %v (want calls=1, tuple_lock_us>0)", v)
	}
}

// TestExplainAnalyzeSQL runs EXPLAIN ANALYZE on a two-table join through
// the full stack and checks per-operator actuals plus the wall-time line.
func TestExplainAnalyzeSQL(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE c (cid INT, region STRING)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX c_pk ON c (cid)")
	execOrFatal(t, db, "CREATE TABLE o (oid INT, cid INT)")
	execOrFatal(t, db, "INSERT INTO c VALUES (1, 'eu'), (2, 'us')")
	execOrFatal(t, db, "INSERT INTO o VALUES (10, 1), (11, 2), (12, 1)")

	res := execOrFatal(t, db, "EXPLAIN ANALYZE SELECT o.oid, c.region FROM o JOIN c ON o.cid = c.cid")
	var text []string
	for _, r := range res.Rows {
		text = append(text, r[0].S)
	}
	plan := strings.Join(text, "\n")
	for _, want := range []string{
		"IndexNestedLoop Join (o.cid = c.cid)",
		"Seq Scan on o (actual rows=3 loops=1",
		"Index Scan using c_pk on c (actual rows=3 loops=3",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if !strings.HasPrefix(text[len(text)-1], "Execution Time: ") {
		t.Fatalf("last line %q", text[len(text)-1])
	}

	// EXPLAIN without ANALYZE carries no actuals and runs nothing.
	res = execOrFatal(t, db, "EXPLAIN DELETE FROM o WHERE oid = 10")
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, "actual rows=") {
			t.Fatalf("plain EXPLAIN has actuals: %q", r[0].S)
		}
	}
	if n := len(execOrFatal(t, db, "SELECT oid FROM o").Rows); n != 3 {
		t.Fatalf("plain EXPLAIN executed its statement: %d rows left", n)
	}
}

// The cold scan counters are registered where phoebe_stat_engine and
// /metrics pick them up, a zone-prunable range moves both, and it leaves
// the point-read cache counters alone.
func TestColdScanCountersListed(t *testing.T) {
	db := openTestDB(t, Options{PageCap: 8, Workers: 1})
	execOrFatal(t, db, "CREATE TABLE ev (id INT, v INT)")
	for i := 0; i < 48; i++ { // six pages; the open last one stays hot
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO ev VALUES (%d, %d)", i, i%5))
	}
	db.CollectGarbage()
	tbl, err := db.Engine().Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Frozen.BlockRows = 8
	if n, err := db.Freeze(5, ^uint32(0)); err != nil || n != 40 {
		t.Fatalf("freeze = (%d, %v), want 40 rows", n, err)
	}
	read := func() map[string]int64 {
		got := map[string]int64{}
		for _, r := range execOrFatal(t, db, "SELECT name, value FROM phoebe_stat_engine").Rows {
			got[r[0].S] = r[1].I
		}
		return got
	}
	before := read()
	names := []string{"phoebe_cold_scan_blocks_total", "phoebe_cold_scan_blocks_pruned_total",
		"phoebe_cold_block_cache_hits_total", "phoebe_cold_block_cache_misses_total"}
	for _, name := range names {
		if _, ok := before[name]; !ok {
			t.Fatalf("%s missing from phoebe_stat_engine", name)
		}
	}
	res := execOrFatal(t, db, "SELECT count(*) FROM ev WHERE id BETWEEN 10 AND 13")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("range count = %v, want 4", res.Rows[0][0])
	}
	after := read()
	delta := func(name string) int64 { return after[name] - before[name] }
	if delta(names[0]) != 1 || delta(names[1]) != 4 {
		t.Fatalf("range over 5 cold blocks fetched %d and pruned %d, want 1 and 4", delta(names[0]), delta(names[1]))
	}
	if delta(names[2]) != 0 || delta(names[3]) != 0 {
		t.Fatalf("a scan moved the point-read cache counters by %d/%d", delta(names[2]), delta(names[3]))
	}
	var buf strings.Builder
	db.Metrics().WritePrometheus(&buf)
	for _, name := range names[:2] {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
}

// Hot pages whose rows follow seq order: a 4,096-row range aggregate
// latches every hot page and skips, by its zone, each page holding no row
// of the range. Both counters reach phoebe_stat_engine and /metrics.
func TestHotScanPrunesPagesOutsideRange(t *testing.T) {
	db := openTestDB(t, Options{Workers: 1})
	execOrFatal(t, db, "CREATE TABLE big (id INT, seq INT, hits INT)")
	const rows, lo, span = 16384, 5000, 4096
	for first := 0; first < rows; first += 1024 {
		err := db.Execute(func(tx *Tx) error {
			for i := first; i < first+1024; i++ {
				if _, err := tx.Insert("big", Row{Int(int64(i + 1)), Int(int64(i)), Int(int64(i % 100))}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The reference: hot pages, and those holding a row of the range.
	tbl, err := db.Engine().Table("big")
	if err != nil {
		t.Fatal(err)
	}
	var pages, meet int64
	if err := tbl.Store.ScanPages(nil, func(v table.PageView) bool {
		pages++
		for i := range v.Pl.IDs {
			if s := v.Pl.Rows.Col(i, 1).I; s >= lo && s < lo+span {
				meet++
				break
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if meet > span/64+1 {
		t.Fatalf("%d pages hold the range's %d rows: the pages do not follow seq", meet, span)
	}
	read := func() map[string]int64 {
		got := map[string]int64{}
		for _, r := range execOrFatal(t, db, "SELECT name, value FROM phoebe_stat_engine").Rows {
			got[r[0].S] = r[1].I
		}
		return got
	}
	names := []string{"phoebe_scan_pages_total", "phoebe_scan_pages_pruned_total"}
	before := read()
	for _, name := range names {
		if _, ok := before[name]; !ok {
			t.Fatalf("%s missing from phoebe_stat_engine", name)
		}
	}
	res := execOrFatal(t, db, fmt.Sprintf("SELECT count(*), sum(hits) FROM big WHERE seq BETWEEN %d AND %d", lo, lo+span-1))
	var sum int64
	for v := int64(lo); v < lo+span; v++ {
		sum += v % 100
	}
	if res.Rows[0][0].I != span || res.Rows[0][1].I != sum {
		t.Fatalf("range aggregate = %v, want [%d %d]", res.Rows[0], span, sum)
	}
	after := read()
	visited, pruned := after[names[0]]-before[names[0]], after[names[1]]-before[names[1]]
	if visited != pages || pruned != pages-meet {
		t.Fatalf("range over %d hot pages, %d of them holding it: visited %d, pruned %d; want %d and %d",
			pages, meet, visited, pruned, pages, pages-meet)
	}
	var buf strings.Builder
	db.Metrics().WritePrometheus(&buf)
	for _, name := range names {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
}

// The group-commit wake-up counter is registered where phoebe_stat_engine
// and /metrics pick it up, and an idle database does not move it.
func TestWakeupCountersListed(t *testing.T) {
	db := openTestDB(t, Options{})
	const name = "phoebe_wal_group_lead_early_total"
	read := func() (int64, bool) {
		res := execOrFatal(t, db, "SELECT name, value FROM phoebe_stat_engine")
		for _, r := range res.Rows {
			if r[0].S == name {
				return r[1].I, true
			}
		}
		return 0, false
	}
	before, ok := read()
	if !ok {
		t.Fatalf("%s missing from phoebe_stat_engine", name)
	}
	time.Sleep(50 * time.Millisecond)
	if after, _ := read(); after != before {
		t.Fatalf("idle database moved %s by %d in 50ms", name, after-before)
	}
}

// The B-Tree latch counters are registered where phoebe_stat_engine and
// /metrics pick them up, summed over every index: filling one index until
// its leaves split takes the exclusive descent.
func TestBTreeCountersListed(t *testing.T) {
	db := openTestDB(t, Options{})
	execOrFatal(t, db, "CREATE TABLE kv (id INT, v INT)")
	execOrFatal(t, db, "CREATE UNIQUE INDEX kv_pk ON kv (id)")
	for i := 0; i < 200; i++ { // more than one 64-key leaf
		execOrFatal(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	got := map[string]int64{}
	for _, r := range execOrFatal(t, db, "SELECT name, value FROM phoebe_stat_engine").Rows {
		got[r[0].S] = r[1].I
	}
	names := []string{"phoebe_btree_optimistic_restarts_total", "phoebe_btree_shared_fallbacks_total",
		"phoebe_btree_exclusive_fallbacks_total"}
	for _, name := range names {
		if _, ok := got[name]; !ok {
			t.Fatalf("%s missing from phoebe_stat_engine", name)
		}
	}
	if got[names[2]] == 0 {
		t.Fatalf("%s = 0 after 200 inserts split the primary key's leaves", names[2])
	}
	var buf strings.Builder
	db.Metrics().WritePrometheus(&buf)
	for _, name := range names {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("%s missing from /metrics", name)
		}
	}
}
