package wire_test

// End-to-end tests of the wire front end, driven through the public
// client package (pipelining, session transactions) and through raw
// frames where the client is deliberately misbehaving (oversized
// frames, abrupt disconnects).

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/wire"
)

func openDB(t testing.TB, opts phoebedb.Options) *phoebedb.DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.SlotsPerWorker == 0 {
		opts.SlotsPerWorker = 8
	}
	db, err := phoebedb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func startWire(t testing.TB, db *phoebedb.DB, cfg func(*wire.Server)) (string, *wire.Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db)
	if cfg != nil {
		cfg(srv)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(l) })
	return l.Addr().String(), srv
}

// statValue reads one row of phoebe_stat_server through SQL.
func statValue(t *testing.T, db *phoebedb.DB, name string) int64 {
	t.Helper()
	res, err := db.ExecSQL("SELECT value FROM phoebe_stat_server WHERE name = '" + name + "'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("phoebe_stat_server[%s] rows = %+v", name, res.Rows)
	}
	return res.Rows[0][0].I
}

func TestWireEndToEnd(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE t (id INT, v STRING, f FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE UNIQUE INDEX t_pk ON t (id)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO t VALUES (1, 'hello', 1.5), (2, 'world', 2.5)")
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert = (%+v, %v)", res, err)
	}
	res, err = c.Exec("SELECT v, f FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "world" || res.Rows[0][1] != "2.5" {
		t.Fatalf("select = %+v", res)
	}
	if res.Columns[0] != "v" || res.Columns[1] != "f" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// A statement error must not kill the session.
	if _, err := c.Exec("SELEC nope"); err == nil {
		t.Fatal("bad statement succeeded")
	} else if se, ok := err.(*client.ServerError); !ok || se.Code != wire.ErrCodeSQL {
		t.Fatalf("error = %v", err)
	}
	if _, err := c.Exec("DELETE FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestWirePipelining enqueues a burst of statements — with an error in
// the middle — before reading anything, and checks every response comes
// back in order without desynchronizing the framing.
func TestWirePipelining(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE p (id INT, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE UNIQUE INDEX p_pk ON p (id)"); err != nil {
		t.Fatal(err)
	}

	const n = 50
	const badAt = 23
	for i := 0; i < n; i++ {
		if i == badAt {
			c.Send("INSERT INTO nosuch VALUES (1)")
			continue
		}
		c.Send(fmt.Sprintf("INSERT INTO p VALUES (%d, 'v%d')", i, i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := c.Recv()
		if i == badAt {
			if err == nil {
				t.Fatalf("response %d: expected error", i)
			}
			continue
		}
		if err != nil || res.Affected != 1 {
			t.Fatalf("response %d = (%+v, %v)", i, res, err)
		}
	}

	// Now pipeline reads and check each value lands on the right response.
	for i := 0; i < n; i++ {
		if i == badAt {
			continue
		}
		c.Send(fmt.Sprintf("SELECT v FROM p WHERE id = %d", i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == badAt {
			continue
		}
		res, err := c.Recv()
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "v"+strconv.Itoa(i) {
			t.Fatalf("select %d = (%+v, %v)", i, res, err)
		}
	}
}

// TestWireSessionTransactions covers the explicit-transaction lifecycle
// across frames: visibility inside the transaction, rollback, commit,
// and the aborted state after a mid-transaction error.
func TestWireSessionTransactions(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	mustExec := func(cl *client.Conn, q string) client.Result {
		t.Helper()
		res, err := cl.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustExec(c, "CREATE TABLE tx (id INT, v STRING)")
	mustExec(c, "CREATE UNIQUE INDEX tx_pk ON tx (id)")

	// Rollback discards.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(c, "INSERT INTO tx VALUES (1, 'a')")
	if res := mustExec(c, "SELECT * FROM tx"); len(res.Rows) != 1 {
		t.Fatalf("in-txn visibility: %+v", res)
	}
	// Uncommitted writes are invisible to other sessions.
	if res := mustExec(c2, "SELECT * FROM tx"); len(res.Rows) != 0 {
		t.Fatalf("dirty read: %+v", res)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(c, "SELECT * FROM tx"); len(res.Rows) != 0 {
		t.Fatalf("rollback left rows: %+v", res)
	}

	// Commit publishes.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(c, "INSERT INTO tx VALUES (2, 'b')")
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(c2, "SELECT v FROM tx WHERE id = 2"); len(res.Rows) != 1 || res.Rows[0][0] != "b" {
		t.Fatalf("post-commit: %+v", res)
	}

	// BEGIN inside a transaction is a TXN error; a failed statement puts
	// the session in the aborted state until ROLLBACK.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err == nil {
		t.Fatal("nested BEGIN succeeded")
	} else if se, ok := err.(*client.ServerError); !ok || se.Code != wire.ErrCodeTxn {
		t.Fatalf("nested BEGIN error = %v", err)
	}
	if _, err := c.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("bad insert succeeded")
	}
	if _, err := c.Exec("SELECT * FROM tx"); err == nil {
		t.Fatal("statement in aborted transaction succeeded")
	} else if se, ok := err.(*client.ServerError); !ok || se.Code != wire.ErrCodeTxn {
		t.Fatalf("aborted-state error = %v", err)
	}
	if err := c.Commit(); err == nil {
		t.Fatal("COMMIT of aborted transaction succeeded")
	}
	// The abort was reported by COMMIT; the session is usable again.
	if res := mustExec(c, "SELECT v FROM tx WHERE id = 2"); len(res.Rows) != 1 {
		t.Fatalf("post-abort: %+v", res)
	}

	// DDL inside a transaction is rejected.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE nope (a INT)"); err == nil {
		t.Fatal("DDL in transaction succeeded")
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// rawConn is a frame-level client for misbehavior tests.
type rawConn struct {
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := &rawConn{nc: nc}
	r.write(t, wire.AppendHello(nil))
	if typ, _ := r.read(t); typ != wire.FrameOK {
		t.Fatalf("hello response = %q", typ)
	}
	return r
}

func (r *rawConn) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := r.nc.Write(b); err != nil {
		t.Fatal(err)
	}
}

func (r *rawConn) read(t *testing.T) (byte, []byte) {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r.nc, hdr[:]); err != nil {
		t.Fatal(err)
	}
	ln := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, ln)
	if _, err := io.ReadFull(r.nc, buf); err != nil {
		t.Fatal(err)
	}
	return buf[0], buf[4:]
}

// TestWireOversizedFrame streams a frame over the 1 MiB limit followed
// by a valid statement: the server must discard the oversized frame,
// answer it with TOO_LARGE in pipeline order, and keep the session.
func TestWireOversizedFrame(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	if _, err := db.ExecSQL("CREATE TABLE big (id INT)"); err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	defer r.nc.Close()

	// Oversized Query frame: declared length 2 MiB.
	huge := 2 << 20
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(huge))
	hdr[4] = wire.FrameQuery
	r.write(t, hdr[:])
	junk := make([]byte, 64*1024)
	for sent := 4; sent < huge; sent += len(junk) {
		n := len(junk)
		if huge-sent < n {
			n = huge - sent
		}
		r.write(t, junk[:n])
	}
	// Immediately pipeline a valid statement behind it.
	r.write(t, wire.AppendQuery(nil, "INSERT INTO big VALUES (1)"))

	typ, body := r.read(t)
	if typ != wire.FrameError {
		t.Fatalf("first response = %q", typ)
	}
	code, _, err := wire.DecodeError(body)
	if err != nil || code != wire.ErrCodeTooLarge {
		t.Fatalf("first response code = %q (%v)", code, err)
	}
	typ, body = r.read(t)
	if typ != wire.FrameOK {
		t.Fatalf("second response = %q", typ)
	}
	if n, _ := wire.DecodeOK(body); n != 1 {
		t.Fatalf("affected = %d", n)
	}
	if v := statValue(t, db, "oversized_frames"); v < 1 {
		t.Fatalf("oversized_frames = %d", v)
	}
}

// TestWireRollbackOnDisconnect kills a connection mid-transaction and
// checks the server rolls the transaction back (releasing its locks and
// discarding its writes).
func TestWireRollbackOnDisconnect(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) {
		s.IdleTxnTimeout = time.Hour // disconnect, not timeout, must trigger the rollback
	})
	if _, err := db.ExecSQL("CREATE TABLE d (id INT)"); err != nil {
		t.Fatal(err)
	}

	r := dialRaw(t, addr)
	r.write(t, wire.AppendBegin(nil, 0))
	if typ, _ := r.read(t); typ != wire.FrameOK {
		t.Fatal("BEGIN failed")
	}
	r.write(t, wire.AppendQuery(nil, "INSERT INTO d VALUES (1)"))
	if typ, _ := r.read(t); typ != wire.FrameOK {
		t.Fatal("INSERT failed")
	}
	r.nc.Close() // abrupt disconnect, transaction open

	deadline := time.Now().Add(5 * time.Second)
	for statValue(t, db, "disconnect_rollbacks") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect rollback never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := db.ExecSQL("SELECT * FROM d")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("rows after disconnect = (%+v, %v)", res, err)
	}
}

// TestWireAdmissionControl saturates a MaxInflight=1, MaxQueue=1 server
// with an idle-in-transaction session plus a queued connection, and
// checks a third connection's work is rejected with OVERLOADED while
// the existing sessions keep executing to completion.
func TestWireAdmissionControl(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) {
		s.MaxInflight = 1
		s.MaxQueue = 1
	})
	if _, err := db.ExecSQL("CREATE TABLE a (id INT)"); err != nil {
		t.Fatal(err)
	}

	// Handshake all three connections while the server is unloaded (a
	// hello is admission-controlled like any other request).
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Session A holds the only inflight slot with an open transaction.
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO a VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// Session B's statement lands in the admission queue.
	b.Send("INSERT INTO a VALUES (2)")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statValue(t, db, "queued") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("statement never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Session C finds inflight and queue both full: OVERLOADED, and the
	// connection survives the rejection.
	if _, err := c.Exec("INSERT INTO a VALUES (3)"); err == nil {
		t.Fatal("overload insert succeeded")
	} else if se, ok := err.(*client.ServerError); !ok || se.Code != wire.ErrCodeOverloaded {
		t.Fatalf("overload error = %v", err)
	}
	if v := statValue(t, db, "rejected_overloaded"); v < 1 {
		t.Fatalf("rejected_overloaded = %d", v)
	}

	// A commits; B's queued statement must now execute.
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if res, err := b.Recv(); err != nil || res.Affected != 1 {
		t.Fatalf("queued statement = (%+v, %v)", res, err)
	}
	// C is usable again once load drains.
	if _, err := c.Exec("INSERT INTO a VALUES (4)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL("SELECT * FROM a")
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("final rows = (%+v, %v)", res, err)
	}
}

// TestWireIdleTxnTimeout checks the server rolls back a transaction its
// client abandoned without disconnecting, and that the connection stays in
// the aborted state: what the client sends next must not commit on its
// own, and COMMIT reports the rollback.
func TestWireIdleTxnTimeout(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) {
		s.IdleTxnTimeout = 50 * time.Millisecond
	})
	if _, err := db.ExecSQL("CREATE TABLE idle (id INT)"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO idle VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statValue(t, db, "idle_txn_rollbacks") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("idle transaction never rolled back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The session survives; its transaction is gone, and the connection
	// answers TXN until the client ends it.
	wantTxnErr := func(what string, err error, msg string) {
		t.Helper()
		se, ok := err.(*client.ServerError)
		if !ok || se.Code != wire.ErrCodeTxn || !strings.Contains(se.Msg, msg) {
			t.Fatalf("%s after the idle rollback: %v, want a TXN error %q", what, err, msg)
		}
	}
	_, err = c.Exec("INSERT INTO idle VALUES (2)")
	wantTxnErr("INSERT", err, "aborted")
	wantTxnErr("BEGIN", c.Begin(), "in progress")
	wantTxnErr("COMMIT", c.Commit(), "transaction aborted; changes rolled back")
	res, err := db.ExecSQL("SELECT * FROM idle")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("rows after idle rollback = (%+v, %v)", res, err)
	}
	// The COMMIT ended the aborted transaction: the next one runs.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO idle VALUES (3)")
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO idle VALUES (4)")
	if res, err := db.ExecSQL("SELECT id FROM idle"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows = (%+v, %v), want 3 and 4", res, err)
	}
}

// TestWireManyConnections races many concurrent pipelined sessions (run
// under -race in CI) and, on Linux, checks goroutine count stays O(pool)
// rather than O(connections) while connections sit idle.
func TestWireManyConnections(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	if _, err := db.ExecSQL("CREATE TABLE m (id INT, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("CREATE UNIQUE INDEX m_pk ON m (id)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := db.ExecSQL(fmt.Sprintf("INSERT INTO m VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}

	const conns = 64
	const depth = 8
	clients := make([]*client.Conn, conns)
	for i := range clients {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}

	// All connections idle: goroutines must not scale with conns.
	before := runtime.NumGoroutine()
	if runtime.GOOS == "linux" {
		if before > conns/2 {
			t.Errorf("idle goroutines = %d with %d connections; multiplexer not multiplexing", before, conns)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for j := 0; j < depth; j++ {
					id := (i + j) % 64
					c.Send(fmt.Sprintf("SELECT v FROM m WHERE id = %d", id))
				}
				if err := c.Flush(); err != nil {
					errs[i] = err
					return
				}
				for j := 0; j < depth; j++ {
					id := (i + j) % 64
					res, err := c.Recv()
					if err != nil {
						errs[i] = err
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0] != "v"+strconv.Itoa(id) {
						errs[i] = fmt.Errorf("conn %d: wrong row %+v for id %d", i, res.Rows, id)
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	if v := statValue(t, db, "admitted"); v < 1 {
		t.Fatalf("admitted = %d", v)
	}
	if runtime.GOOS != "linux" {
		return
	}

	// Idle phase: connections parked in epoll cost a descriptor each, not a
	// goroutine, so going from 64 to 2,000 idle connections must leave the
	// goroutine count where the 64-connection phase had it. Every loopback
	// connection burns two descriptors; keep headroom for the database's.
	idle := 2000
	if lim := openFilesLimit(); lim > 1000 {
		idle = min(idle, int((lim-1000)/2))
	}
	for n := conns; n < idle; n++ {
		r := dialRaw(t, addr)
		defer r.nc.Close()
	}
	if v := statValue(t, db, "connections"); v != int64(idle) {
		t.Fatalf("server holds %d connections, want %d", v, idle)
	}
	// The pipelined phase's goroutines may still be exiting: allow them a
	// moment, then compare, with room for a timer firing meanwhile.
	const slack = 4
	var atIdle int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if atIdle = runtime.NumGoroutine(); atIdle <= before+slack || time.Now().After(deadline) {
			break
		}
	}
	t.Logf("goroutines: %d at %d idle connections, %d at %d", before, conns, atIdle, idle)
	if atIdle > before+slack {
		t.Errorf("goroutines grew from %d at %d idle connections to %d at %d", before, conns, atIdle, idle)
	}
}

// lateListener's first Accept takes a connection but hands it over only
// once release is closed; later calls report the listener closed. It is an
// Accept that returned just before Shutdown closed the listener, seen by
// Serve only after Shutdown has returned.
type lateListener struct {
	net.Listener
	accepting chan struct{} // closed once Serve is inside Accept
	release   chan struct{}
	calls     int
}

func (l *lateListener) Accept() (net.Conn, error) {
	if l.calls++; l.calls > 1 {
		return nil, net.ErrClosed
	}
	nc, err := l.Listener.Accept()
	close(l.accepting)
	<-l.release
	return nc, err
}

// A connection Accept returns after Shutdown has begun is refused, not
// adopted: nothing would ever close it, and its session could start after
// Shutdown's wait for sessions. The client sees EOF and Serve returns nil.
func TestWireAcceptAfterShutdownIsRefused(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &lateListener{Listener: inner, accepting: make(chan struct{}), release: make(chan struct{})}
	nc, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	srv := wire.NewServer(db)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	<-l.accepting
	srv.Shutdown(l)
	close(l.release)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("client read after Shutdown = (%d, %v), want EOF", n, err)
	}
}

// TestWireMaxConnections checks the accept-time cap: the excess
// connection gets a structured TOO_MANY_CONNECTIONS error, existing
// connections keep working.
func TestWireMaxConnections(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) {
		s.MaxConnections = 2
	})
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatalf("no rejection frame: %v", err)
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(nc, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != wire.FrameError {
		t.Fatalf("rejection frame type = %q", buf[0])
	}
	code, _, err := wire.DecodeError(buf[4:])
	if err != nil || code != wire.ErrCodeTooManyConns {
		t.Fatalf("rejection code = %q (%v)", code, err)
	}
	if _, err := a.Exec("CREATE TABLE mc (id INT)"); err != nil {
		t.Fatalf("existing connection broken: %v", err)
	}
}

// TestWirePipelinedBurstLeavesInFewWrites: a session collects the answers
// of a pipelined burst in its outbox and writes them once the queue runs
// empty, so depth-32 bursts cost about one socket write each, and the
// answers still come back in request order.
func TestWirePipelinedBurstLeavesInFewWrites(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, srv := startWire(t, db, nil)
	if _, err := db.ExecSQL("CREATE TABLE b (id INT, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("CREATE UNIQUE INDEX b_pk ON b (id)"); err != nil {
		t.Fatal(err)
	}
	const depth, bursts = 32, 10
	for i := 0; i < depth; i++ {
		if _, err := db.ExecSQL(fmt.Sprintf("INSERT INTO b VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := srv.SocketWrites()
	for b := 0; b < bursts; b++ {
		for i := 0; i < depth; i++ {
			c.Send(fmt.Sprintf("SELECT v FROM b WHERE id = %d", i))
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			res, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != "v"+strconv.Itoa(i) {
				t.Fatalf("burst %d answer %d out of order: %+v", b, i, res.Rows)
			}
		}
	}
	writes := srv.SocketWrites() - before
	if responses := int64(depth * bursts); writes*8 > responses {
		t.Fatalf("%d responses left in %d socket writes; want about one write per burst of %d", responses, writes, depth)
	}
}

// Answers are held back for a batch only while the session keeps executing:
// when the second statement of a pipeline parks on a tuple lock, the answer
// to the first must reach the client before the lock is released.
func TestWireHeldAnswerLeavesBeforeLockWait(t *testing.T) {
	db := openDB(t, phoebedb.Options{LockTimeout: 30 * time.Second})
	addr, _ := startWire(t, db, nil)
	for _, q := range []string{
		"CREATE TABLE h (id INT, v STRING)",
		"CREATE UNIQUE INDEX h_pk ON h (id)",
		"INSERT INTO h VALUES (1, 'a')",
		"INSERT INTO h VALUES (2, 'b')",
	} {
		if _, err := db.ExecSQL(q); err != nil {
			t.Fatal(err)
		}
	}
	holder, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE h SET v = 'held' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send("SELECT v FROM h WHERE id = 2")
	c.Send("UPDATE h SET v = 'mine' WHERE id = 1") // waits for holder
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		res, err := c.Recv()
		if err == nil && (len(res.Rows) != 1 || res.Rows[0][0] != "b") {
			err = fmt.Errorf("first answer: %+v", res.Rows)
		}
		first <- err
	}()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first answer held back behind the second statement's lock wait")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
}

// TestWireSlowClientShedAfterSlotReleased: a client that sends requests
// and never reads the answers fills its socket. The session must not wait
// for it — it hands the unsent bytes to the writer pool and gives its pool
// slot back — and the writer pool sheds the connection at WriteTimeout.
func TestWireSlowClientShedAfterSlotReleased(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) {
		s.MaxOutbox = 256 << 20          // shed by the write timeout, not the outbox cap
		s.WriteTimeout = 3 * time.Second // far longer than the session needs, race detector included
	})
	if _, err := db.ExecSQL("CREATE TABLE big (id INT, v STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("CREATE UNIQUE INDEX big_pk ON big (id)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("INSERT INTO big VALUES (1, '" + strings.Repeat("x", 16<<10) + "')"); err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	defer r.nc.Close()
	// 1000 answers of 16 KiB: 16 MiB, far beyond what loopback buffers hold.
	var reqs []byte
	for i := 0; i < 1000; i++ {
		reqs = wire.AppendQuery(reqs, "SELECT v FROM big WHERE id = 1")
	}
	sent := statValue(t, db, "bytes_in") + int64(len(reqs))
	r.write(t, reqs)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the session to execute every request and release its slot", func() bool {
		return statValue(t, db, "bytes_in") == sent && statValue(t, db, "active_sessions") == 0
	})
	if shed := statValue(t, db, "shed_slow_clients"); shed != 0 {
		t.Fatalf("client shed (%d) before its session finished: the slot waited for the socket", shed)
	}
	if open := statValue(t, db, "connections"); open != 1 {
		t.Fatalf("connections = %d with the writer pool still holding the flush", open)
	}
	waitFor("the writer pool to shed the client", func() bool {
		return statValue(t, db, "shed_slow_clients") == 1 && statValue(t, db, "connections") == 0
	})
	// The pool slot is free for others.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res, err := c.Exec("SELECT id FROM big WHERE id = 1"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("server unusable after shedding: (%+v, %v)", res, err)
	}
}
