package wire_test

// On Linux a session inside a transaction reads its own socket: the pool
// readers hand the connection over at the session's first wait and take it
// back when the session leaves outside a transaction. These tests drive
// each edge of that hand-off and check that no frame is lost, doubled or
// reordered, and that the session still ends on close, on Shutdown and on
// the idle deadline.

import (
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/wire"
)

// readOK reads one response and fails unless it is an OK frame.
func (r *rawConn) readOK(t *testing.T, what string) int {
	t.Helper()
	typ, body := r.read(t)
	if typ != wire.FrameOK {
		code, msg, _ := wire.DecodeError(body)
		t.Fatalf("%s: response %q (%s %s), want OK", what, typ, code, msg)
	}
	n, _ := wire.DecodeOK(body)
	return n
}

func rowCount(t *testing.T, db *phoebedb.DB, table string) int {
	t.Helper()
	res, err := db.ExecSQL("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// waitStat polls a phoebe_stat_server row until it reads want.
func waitStat(t *testing.T, db *phoebedb.DB, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v := statValue(t, db, name); v != want; v = statValue(t, db, name) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, v, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A pool reader has pulled an event for the connection from epoll but not
// yet served it when the session takes the socket over. The session must
// read the announced frame itself, and the reader must drop the event.
func TestWireSelfReadEventQueuedAtTakeover(t *testing.T) {
	var (
		armed, inTakeover atomic.Bool
		pulled            = make(chan struct{})
		release           = make(chan struct{})
		r                 *rawConn
	)
	wire.SetSelfReadHooks(func() {
		if inTakeover.CompareAndSwap(true, false) {
			close(pulled)
			<-release
		}
	}, func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		// Let the reader finish with BEGIN and re-arm, then send the next
		// statement: the reader, not the session, is woken for it.
		time.Sleep(10 * time.Millisecond)
		inTakeover.Store(true)
		if _, err := r.nc.Write(wire.AppendQuery(nil, "INSERT INTO q VALUES (1)")); err != nil {
			t.Error(err)
		}
		select {
		case <-pulled:
		case <-time.After(5 * time.Second):
			t.Error("no reader pulled the event")
		}
	})
	t.Cleanup(func() { wire.SetSelfReadHooks(nil, nil) })
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	if _, err := db.ExecSQL("CREATE TABLE q (id INT)"); err != nil {
		t.Fatal(err)
	}
	r = dialRaw(t, addr)
	defer r.nc.Close()

	armed.Store(true)
	r.write(t, wire.AppendBegin(nil, 0))
	r.readOK(t, "BEGIN")
	// Answered while the reader still holds its event: the session read it.
	r.readOK(t, "INSERT")
	if v := statValue(t, db, "session_reads"); v != 1 {
		t.Fatalf("session_reads = %d, want 1", v)
	}
	close(release)
	r.write(t, wire.AppendQuery(nil, "INSERT INTO q VALUES (2)"))
	r.readOK(t, "second INSERT")
	r.write(t, wire.AppendFrame(nil, wire.FrameCommit, nil))
	r.readOK(t, "COMMIT")
	// The socket is back with the readers.
	r.write(t, wire.AppendQuery(nil, "INSERT INTO q VALUES (3)"))
	r.readOK(t, "autocommit INSERT")
	if n := rowCount(t, db, "q"); n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	if v := statValue(t, db, "session_reads"); v != 3 {
		t.Fatalf("session_reads = %d, want 3 (two INSERTs and the COMMIT)", v)
	}
}

// Frames pipelined inside a transaction, with a pipeline limit of 2 that
// pauses reading: every answer arrives, in order, whether the reader or
// the session read the frame.
func TestWireSelfReadPipelinedInTxn(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) { s.MaxPipeline = 2 })
	if _, err := db.ExecSQL("CREATE TABLE p (id INT)"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			if i%10 == 9 {
				c.Send("SELECT count(*) FROM p")
			} else {
				c.Send("INSERT INTO p VALUES (" + strconv.Itoa(round*n+i) + ")")
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		inserted := round * n * 9 / 10
		for i := 0; i < n; i++ {
			res, err := c.Recv()
			if err != nil {
				t.Fatalf("round %d response %d: %v", round, i, err)
			}
			if i%10 != 9 {
				inserted++
				continue
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != strconv.Itoa(inserted) {
				t.Fatalf("round %d response %d: count %v, want %d", round, i, res.Rows, inserted)
			}
		}
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rowCount(t, db, "p"); got != 3*n*9/10 {
		t.Fatalf("rows = %d, want %d", got, 3*n*9/10)
	}
	if v := statValue(t, db, "session_reads"); v < 1 {
		t.Fatalf("session_reads = %d: no frame was read by the session", v)
	}

	// BEGIN and a run of statements in one write reach the reader, which
	// pauses at the limit; the session takes over once it has run them.
	r := dialRaw(t, addr)
	defer r.nc.Close()
	var burst []byte
	burst = wire.AppendBegin(burst, 0)
	for i := 0; i < 50; i++ {
		burst = wire.AppendQuery(burst, "INSERT INTO p VALUES (-1)")
	}
	r.write(t, burst)
	r.readOK(t, "BEGIN")
	for i := 0; i < 50; i++ {
		r.readOK(t, "INSERT "+strconv.Itoa(i))
	}
	r.write(t, wire.AppendFrame(nil, wire.FrameCommit, nil))
	r.readOK(t, "COMMIT")
	if got := rowCount(t, db, "p"); got != 3*n*9/10+50 {
		t.Fatalf("rows = %d, want %d", got, 3*n*9/10+50)
	}
}

// Autocommit statements stay on the reader path; a transaction's session
// hands the socket back at COMMIT, and a BEGIN pipelined behind the COMMIT
// starts the next transaction on the same session.
func TestWireSelfReadAutocommitAndNextBegin(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, nil)
	if _, err := db.ExecSQL("CREATE TABLE a (id INT)"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		mustExec(t, c, "INSERT INTO a VALUES ("+strconv.Itoa(i)+")")
	}
	if v := statValue(t, db, "session_reads"); v != 0 {
		t.Fatalf("session_reads = %d after autocommit statements, want 0", v)
	}
	for txn := 0; txn < 3; txn++ {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "INSERT INTO a VALUES (100)")
		mustExec(t, c, "SELECT count(*) FROM a")
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "INSERT INTO a VALUES (200)")
	}
	// A transaction's statements after its BEGIN are the session's to read:
	// it takes the socket over before it answers BEGIN. (Only a reader
	// still draining after BEGIN may queue one first.)
	if v := statValue(t, db, "session_reads"); v < 1 || v > 9 {
		t.Fatalf("session_reads = %d, want 1..9", v)
	}

	r := dialRaw(t, addr)
	defer r.nc.Close()
	r.write(t, wire.AppendBegin(nil, 0))
	r.readOK(t, "BEGIN")
	var b []byte
	b = wire.AppendQuery(b, "INSERT INTO a VALUES (300)")
	b = wire.AppendFrame(b, wire.FrameCommit, nil)
	b = wire.AppendQuery(b, "INSERT INTO a VALUES (400)")
	b = wire.AppendBegin(b, 0)
	b = wire.AppendQuery(b, "INSERT INTO a VALUES (500)")
	r.write(t, b)
	for _, what := range []string{"INSERT 300", "COMMIT", "INSERT 400", "BEGIN", "INSERT 500"} {
		r.readOK(t, what)
	}
	r.write(t, wire.AppendFrame(nil, wire.FrameRollback, nil))
	r.readOK(t, "ROLLBACK")
	mustExec(t, c, "INSERT INTO a VALUES (600)")
	if got := rowCount(t, db, "a"); got != 20+3*2+2+1 {
		t.Fatalf("rows = %d, want %d", got, 20+3*2+2+1)
	}
	waitStat(t, db, "active_sessions", 0)
}

// startSelfReadWait opens a transaction with one INSERT on a new raw
// connection and returns once its session has taken the socket over.
func startSelfReadWait(t *testing.T, addr string, took <-chan struct{}) *rawConn {
	t.Helper()
	r := dialRaw(t, addr)
	r.write(t, wire.AppendBegin(nil, 0))
	r.readOK(t, "BEGIN")
	r.write(t, wire.AppendQuery(nil, "INSERT INTO w VALUES (1)"))
	r.readOK(t, "INSERT")
	select {
	case <-took:
	case <-time.After(5 * time.Second):
		t.Fatal("the session never took its socket over")
	}
	time.Sleep(20 * time.Millisecond) // into the poller wait
	return r
}

// Closing the connection, or shutting the server down, while the session
// waits on its socket ends the wait: the transaction rolls back and the
// slot is released.
func TestWireSelfReadCloseAndShutdownDuringWait(t *testing.T) {
	took := make(chan struct{}, 8)
	wire.SetSelfReadHooks(nil, func() { took <- struct{}{} })
	t.Cleanup(func() { wire.SetSelfReadHooks(nil, nil) })
	db := openDB(t, phoebedb.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db)
	srv.IdleTxnTimeout = time.Hour
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(l) })
	if _, err := db.ExecSQL("CREATE TABLE w (id INT)"); err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	r := startSelfReadWait(t, addr, took)
	r.nc.Close()
	waitStat(t, db, "disconnect_rollbacks", 1)
	waitStat(t, db, "connections", 0)
	waitStat(t, db, "active_sessions", 0)

	r = startSelfReadWait(t, addr, took)
	defer r.nc.Close()
	done := make(chan struct{})
	go func() {
		srv.Shutdown(l)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not end the session's socket wait")
	}
	if v := statValue(t, db, "disconnect_rollbacks"); v != 2 {
		t.Fatalf("disconnect_rollbacks = %d, want 2", v)
	}
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("the connection is still open after Shutdown")
	}
	if n := rowCount(t, db, "w"); n != 0 {
		t.Fatalf("rows = %d after the rollbacks, want 0", n)
	}
}

// The idle deadline of a session waiting on its socket fires, rolls the
// transaction back and hands the socket back: the connection keeps
// working through the reader path.
func TestWireSelfReadIdleDeadline(t *testing.T) {
	db := openDB(t, phoebedb.Options{})
	addr, _ := startWire(t, db, func(s *wire.Server) { s.IdleTxnTimeout = 30 * time.Millisecond })
	if _, err := db.ExecSQL("CREATE TABLE w (id INT)"); err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	defer r.nc.Close()
	for round := int64(1); round <= 3; round++ {
		r.write(t, wire.AppendBegin(nil, 0))
		r.readOK(t, "BEGIN")
		r.write(t, wire.AppendQuery(nil, "INSERT INTO w VALUES (1)"))
		r.readOK(t, "INSERT")
		waitStat(t, db, "idle_txn_rollbacks", round)
		waitStat(t, db, "active_sessions", 0)
		r.write(t, wire.AppendFrame(nil, wire.FrameRollback, nil))
		r.readOK(t, "ROLLBACK")
	}
	r.write(t, wire.AppendQuery(nil, "INSERT INTO w VALUES (2)"))
	r.readOK(t, "autocommit INSERT")
	if n := rowCount(t, db, "w"); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
}
