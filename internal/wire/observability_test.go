package wire_test

// The HTTP side of the front door (/metrics, /slowlog) and DDL durability,
// each driven end to end through wire.Server and the client package.

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/fault"
	"phoebedb/internal/wire"
)

// scrape fetches the Prometheus endpoint and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts a scalar sample from a Prometheus text body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMetricsEndpointUnderLoad scrapes the Prometheus endpoint and queries
// the pg_stat-style virtual tables while concurrent sessions run a write
// workload, checking that counters are live, monotonic, and merged across
// task slots.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, srv := startWire(t, db, nil)
	ms := httptest.NewServer(srv.MetricsHandler())
	defer ms.Close()

	setup := dial(t, addr)
	if _, err := setup.Exec("CREATE TABLE load (id INT, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("CREATE UNIQUE INDEX load_pk ON load (id)"); err != nil {
		t.Fatal(err)
	}

	// Concurrent sessions hammer inserts while the main goroutine scrapes.
	const clients, per = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				id := strconv.Itoa(g*per + i)
				if _, err := c.Exec("INSERT INTO load VALUES (" + id + ", 'x')"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// First scrape mid-workload: the endpoint must answer while sessions
	// are live, even if the counters are still small.
	mid := scrape(t, ms.URL)
	midCommits := metricValue(t, mid, "phoebe_txn_commits_total")
	wg.Wait()

	body := scrape(t, ms.URL)
	commits := metricValue(t, body, "phoebe_txn_commits_total")
	if commits < midCommits {
		t.Fatalf("commits not monotonic: %d then %d", midCommits, commits)
	}
	if commits < clients*per {
		t.Fatalf("commits = %d, want >= %d", commits, clients*per)
	}
	for _, name := range []string{
		"phoebe_wal_flushes_total",
		"phoebe_io_wal_write_bytes_total",
		"phoebe_buffer_accesses_total",
		"phoebe_sched_executed_total",
	} {
		if v := metricValue(t, body, name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
	// The latency histogram merges every slot's observations: with 4
	// concurrent sessions the work is spread over multiple slots, and the
	// merged count must still cover every commit.
	if n := metricValue(t, body, "phoebe_txn_latency_seconds_count"); n < commits {
		t.Errorf("merged histogram count %d < commits %d", n, commits)
	}

	// The same numbers are queryable over SQL as virtual tables.
	c := dial(t, addr)
	res, err := c.Exec("SELECT name, value FROM phoebe_stat_engine WHERE name = 'phoebe_txn_commits_total'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("stat_engine rows = %+v", res.Rows)
	}
	if v, _ := strconv.ParseInt(res.Rows[0][1], 10, 64); v < commits {
		t.Fatalf("stat_engine commits = %d, scrape said %d", v, commits)
	}
	res, err = c.Exec("SELECT * FROM phoebe_stat_latency")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("phoebe_stat_latency is empty")
	}
	// Writes to virtual tables must be rejected.
	if _, err := c.Exec("DELETE FROM phoebe_stat_engine"); err == nil {
		t.Fatal("DELETE on a stat table succeeded")
	}
}

// TestSlowTxnTracer forces a slow commit with a sleep failpoint in the WAL
// flush path and checks the transaction surfaces in the slow log, with its
// component breakdown, through every exposure: the Go API, the SQL virtual
// table, and the HTTP slow-log dump.
func TestSlowTxnTracer(t *testing.T) {
	if err := fault.Enable(fault.WALPreSync, "sleep(30ms)"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	db := openDB(t, phoebedb.Options{SlotsPerWorker: 4, SlowTxnThreshold: 5 * time.Millisecond})
	var logged bytes.Buffer
	db.SlowLog().SetOutput(log.New(&logged, "", 0))
	addr, srv := startWire(t, db, nil)
	c := dial(t, addr)

	if _, err := c.Exec("CREATE TABLE s (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO s VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	if n := db.SlowLog().Count(); n == 0 {
		t.Fatal("no slow transactions recorded")
	}
	recent := db.SlowLog().Recent()
	if len(recent) == 0 || recent[0].Total < 30*time.Millisecond {
		t.Fatalf("recent = %+v", recent)
	}
	if !strings.Contains(logged.String(), "slow txn") {
		t.Fatalf("slow log output = %q", logged.String())
	}

	res, err := c.Exec("SELECT xid, committed, total_us FROM phoebe_stat_slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("phoebe_stat_slow is empty")
	}
	if v, _ := strconv.ParseInt(res.Rows[0][2], 10, 64); v < 30_000 {
		t.Fatalf("total_us = %s, want >= 30000", res.Rows[0][2])
	}

	ms := httptest.NewServer(srv.MetricsHandler())
	defer ms.Close()
	resp, err := http.Get(ms.URL + "/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(dump), "xid=") {
		t.Fatalf("/slowlog dump = %q", dump)
	}
	body := scrape(t, ms.URL)
	if v := metricValue(t, body, "phoebe_txn_slow_total"); v == 0 {
		t.Fatal("phoebe_txn_slow_total = 0")
	}
}

// TestDDLOverWireSurvivesRestart: DDL is routed on CREATE followed by any
// whitespace — a tab, a newline, a statement spanning lines — and is logged
// like every other change, so a restarted server recovers the table, its
// index and its rows with nothing declared before Recover.
func TestDDLOverWireSurvivesRestart(t *testing.T) {
	opts := phoebedb.Options{Dir: t.TempDir(), Workers: 2, SlotsPerWorker: 8}
	db, err := phoebedb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db)
	go srv.Serve(l)
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"CREATE\tTABLE j (a INT,\n  b STRING)",
		"CREATE\nUNIQUE INDEX j_a\nON j (a)",
		"INSERT INTO j VALUES (1, 'x'), (2, 'y')",
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	c.Close()
	srv.Shutdown(l)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openDB(t, opts)
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if tbl, err := db.Engine().Table("j"); err != nil || tbl.Index("j_a") == nil {
		t.Fatalf("after restart: table j = %v, %v", tbl, err)
	}
	addr, _ := startWire(t, db, nil)
	res, err := dial(t, addr).Exec("SELECT b FROM j WHERE a = 2")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "y" {
		t.Fatalf("after restart: %+v, %v", res, err)
	}
}
