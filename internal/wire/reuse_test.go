package wire_test

// The connection reuses its buffers from request to request: one body
// arena, one response buffer, one Rows encoder. These tests check that the
// reuse is not observable — every response carries its own statement's
// answer — and pin what a round trip may still allocate.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/wire"
)

// wireRoundTripAllocs is what one synchronous point SELECT over loopback
// allocates, server and client together: nothing on the server, and on the
// client the four pieces of a Result (column list, row list, the values'
// []string and their text). A ceiling, pinned where this change left it.
const wireRoundTripAllocs = 4

// kvClient starts a server over a 32-row kv table and dials it.
func kvClient(t testing.TB) *client.Conn {
	db := openDB(t, phoebedb.Options{ASHSampleInterval: -1})
	addr, _ := startWire(t, db, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustExec(t, c, "CREATE TABLE kv (id INT, v STRING, n INT)")
	mustExec(t, c, "CREATE UNIQUE INDEX kv_pk ON kv (id)")
	for i := 0; i < 32; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d', %d)", i, i, 1000+i))
	}
	return c
}

func TestAllocWireRoundTrip(t *testing.T) {
	c := kvClient(t)
	get := func(id int) {
		res, err := c.Exec("SELECT * FROM kv WHERE id = " + strconv.Itoa(id))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][1] != "v"+strconv.Itoa(id) {
			t.Errorf("id %d: (%+v, %v)", id, res, err)
		}
	}
	get(1) // plan cache, scratch, buffers
	queries := [...]string{"SELECT * FROM kv WHERE id = 3", "SELECT * FROM kv WHERE id = 4"}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.Exec(queries[i&1])
		i++
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("(%+v, %v)", res, err)
		}
	})
	if allocs > wireRoundTripAllocs {
		t.Errorf("a point SELECT round trip allocates %.1f objects, want <= %d", allocs, wireRoundTripAllocs)
	}
	t.Logf("allocs per round trip: %.1f", allocs)
}

// Inside an open transaction the session reads its own socket; a round
// trip there allocates no more than an autocommit one.
func TestAllocWireRoundTripInTxn(t *testing.T) {
	c := kvClient(t)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "SELECT * FROM kv WHERE id = 1") // plan cache, buffers
	queries := [...]string{"SELECT * FROM kv WHERE id = 3", "SELECT * FROM kv WHERE id = 4"}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.Exec(queries[i&1])
		i++
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("(%+v, %v)", res, err)
		}
	})
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if allocs > wireRoundTripAllocs {
		t.Errorf("a point SELECT round trip inside a transaction allocates %.1f objects, want <= %d", allocs, wireRoundTripAllocs)
	}
	t.Logf("allocs per round trip: %.1f", allocs)
}

// BenchmarkWireRoundTrip times one synchronous point SELECT over loopback,
// as an autocommit statement and inside an open transaction.
func BenchmarkWireRoundTrip(b *testing.B) {
	queries := [...]string{"SELECT * FROM kv WHERE id = 3", "SELECT * FROM kv WHERE id = 4"}
	run := func(b *testing.B, c *client.Conn) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := c.Exec(queries[i&1]); err != nil || len(res.Rows) != 1 {
				b.Fatalf("(%+v, %v)", res, err)
			}
		}
	}
	b.Run("autocommit", func(b *testing.B) {
		c := kvClient(b)
		b.ResetTimer()
		run(b, c)
	})
	b.Run("in_txn", func(b *testing.B) {
		c := kvClient(b)
		if err := c.Begin(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, c)
		b.StopTimer()
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	})
}

func mustExec(t testing.TB, c *client.Conn, q string) client.Result {
	t.Helper()
	res, err := c.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// One connection pipelines 128 different point SELECTs at depth 128, with a
// statement error in the middle and a result large enough to force the
// held responses out early: every response must carry its own statement's
// row, in order, with the framing intact after the error and after the
// large result.
func TestWirePipelineNoCrossTalk(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, "CREATE TABLE kv (id INT, v STRING)")
	mustExec(t, c, "CREATE UNIQUE INDEX kv_pk ON kv (id)")
	mustExec(t, c, "CREATE TABLE wide (id INT, pad STRING)")
	const n = 128
	for i := 0; i < n; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'value-%d')", i, i*7))
	}
	// 100 rows x ~1 KiB: a ~100 KiB Rows frame, over the 64 KiB hold.
	pad := strings.Repeat("x", 1000)
	for i := 0; i < 100; i++ {
		mustExec(t, c, fmt.Sprintf("INSERT INTO wide VALUES (%d, '%s')", i, pad))
	}

	const errAt, wideAt = 40, 90
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			switch i {
			case errAt:
				err = c.Send("SELECT nosuch FROM kv WHERE id = 1")
			case wideAt:
				err = c.Send("SELECT * FROM wide")
			default:
				err = c.Send("SELECT id, v FROM kv WHERE id = " + strconv.Itoa(i))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			res, err := c.Recv()
			switch i {
			case errAt:
				se, ok := err.(*client.ServerError)
				if !ok || se.Code != wire.ErrCodeSQL {
					t.Fatalf("round %d response %d: want an SQL error, got (%+v, %v)", round, i, res, err)
				}
			case wideAt:
				if err != nil || len(res.Rows) != 100 || res.Rows[99][1] != pad {
					t.Fatalf("round %d response %d: wide result damaged (%d rows, %v)", round, i, len(res.Rows), err)
				}
			default:
				want := "value-" + strconv.Itoa(i*7)
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != strconv.Itoa(i) || res.Rows[0][1] != want {
					t.Fatalf("round %d response %d: got (%+v, %v), want row (%d, %s)", round, i, res, err, i, want)
				}
			}
		}
	}
	// The results above must still read the same after the connection has
	// reused its buffers: a Result owns its strings.
	first := mustExec(t, c, "SELECT id, v FROM kv WHERE id = 5")
	for i := 0; i < 50; i++ {
		mustExec(t, c, "SELECT id, v FROM kv WHERE id = "+strconv.Itoa(60+i))
	}
	if first.Rows[0][0] != "5" || first.Rows[0][1] != "value-35" || first.Columns[1] != "v" {
		t.Fatalf("an earlier Result changed under later statements: %+v", first)
	}
}
