package wire

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unsafe"

	phoebedb "phoebedb"
	"phoebedb/internal/metrics"
	"phoebedb/internal/rel"
)

// Server is the wire-protocol front end. Configure the exported fields
// before calling Serve; zero values get production defaults.
type Server struct {
	DB *phoebedb.DB

	// MaxConnections caps accepted connections; excess connects receive a
	// TOO_MANY_CONNECTIONS error frame and are closed. Default 10000.
	MaxConnections int
	// MaxInflight caps concurrently running session tasks — the number of
	// co-routine pool slots the front end may hold at once. Default
	// DB.PoolSlots()-2 (two slots stay free so DDL, which internally
	// submits its own pool task, cannot deadlock behind a full front end).
	MaxInflight int
	// MaxQueue bounds the admission queue of connections waiting for an
	// inflight grant; beyond it new work is rejected with OVERLOADED.
	// Default 4×MaxInflight.
	MaxQueue int
	// MaxPipeline bounds decoded-but-unexecuted requests per connection.
	// A connection at the limit stops being read (TCP backpressure) until
	// its session drains the queue. Default 128.
	MaxPipeline int
	// MaxOutbox bounds buffered response bytes per connection; a client
	// not draining responses past it is shed. Default 4 MiB.
	MaxOutbox int
	// WriteTimeout bounds one outbox flush; a slower client is shed.
	// Default 5s.
	WriteTimeout time.Duration
	// IdleTxnTimeout bounds how long a session holds an explicit
	// transaction open with no pending statements before the server rolls
	// it back. Default 60s.
	IdleTxnTimeout time.Duration
	// Readers and Writers size the reader/writer goroutine pools.
	// Default min(GOMAXPROCS, 4).
	Readers int
	Writers int

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // readers, writers
	sessWg   sync.WaitGroup // session tasks

	connMu sync.Mutex
	conns  map[*conn]struct{}

	admitMu  sync.Mutex
	inflight int
	admitq   []*conn

	poll pollState

	// writeq feeds the writer pool: connections whose socket buffer filled
	// up under a non-blocking flush. A connection is on it at most once.
	writeq chan *conn

	nConns     atomic.Int64
	nActive    atomic.Int64
	cAdmitted  atomic.Int64
	cQueued    atomic.Int64
	cRejOver   atomic.Int64
	cRejConns  atomic.Int64
	cOversized atomic.Int64
	cShedSlow  atomic.Int64
	cIdleRB    atomic.Int64
	cDiscRB    atomic.Int64
	cBytesIn   atomic.Int64
	cBytesOut  atomic.Int64
	cWrites    atomic.Int64 // socket writes issued (tests: responses per write)
	hDepth     metrics.Histogram
	hQueueWait metrics.Histogram
}

// NewServer returns a server over an open database with default limits.
func NewServer(db *phoebedb.DB) *Server {
	return &Server{DB: db}
}

func (s *Server) defaults() {
	if s.MaxConnections <= 0 {
		s.MaxConnections = 10000
	}
	if s.MaxInflight <= 0 {
		s.MaxInflight = s.DB.PoolSlots() - 2
		if s.MaxInflight < 1 {
			s.MaxInflight = 1
		}
	}
	if s.MaxQueue <= 0 {
		s.MaxQueue = 4 * s.MaxInflight
	}
	if s.MaxPipeline <= 0 {
		s.MaxPipeline = 128
	}
	if s.MaxOutbox <= 0 {
		s.MaxOutbox = 4 << 20
	}
	if s.WriteTimeout <= 0 {
		s.WriteTimeout = 5 * time.Second
	}
	if s.IdleTxnTimeout <= 0 {
		s.IdleTxnTimeout = 60 * time.Second
	}
	pool := runtime.GOMAXPROCS(0)
	if pool > 4 {
		pool = 4
	}
	if pool < 1 {
		pool = 1
	}
	if s.Readers <= 0 {
		s.Readers = pool
	}
	if s.Writers <= 0 {
		s.Writers = pool
	}
}

// Serve accepts and serves connections until the listener closes. It
// returns nil on clean shutdown (Shutdown called).
func (s *Server) Serve(l net.Listener) error {
	s.defaults()
	s.done = make(chan struct{})
	s.conns = make(map[*conn]struct{})
	s.writeq = make(chan *conn, s.MaxConnections+16)
	s.registerMetrics()
	if err := s.pollerInit(); err != nil {
		return err
	}
	for i := 0; i < s.Writers; i++ {
		s.wg.Add(1)
		go s.writer()
	}
	s.startReaders()

	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.accept(nc)
	}
}

func (s *Server) accept(nc net.Conn) {
	if s.nConns.Load() >= int64(s.MaxConnections) {
		s.cRejConns.Add(1)
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		nc.Write(AppendError(nil, ErrCodeTooManyConns,
			fmt.Sprintf("connection limit %d reached", s.MaxConnections)))
		nc.Close()
		return
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &conn{srv: s, nc: nc, notify: make(chan struct{}, 1)}
	c.flushHeld = func() { s.flushHeld(c) }
	c.ps = s.DB.NewPoolSession(func(ps *phoebedb.PoolSession) { s.runSession(c, ps) })
	s.connMu.Lock()
	// Accept can return just before Shutdown closes the listener. Once
	// Shutdown has begun, its snapshot of s.conns may already be taken, so
	// a connection registered now would never be closed: refuse it.
	select {
	case <-s.done:
		s.connMu.Unlock()
		nc.Close()
		return
	default:
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	s.nConns.Add(1)
	if err := s.pollerRegister(c); err != nil {
		s.closeConn(c)
	}
}

// Shutdown stops accepting, closes every connection (rolling back any
// open session transactions), and waits for sessions and pool goroutines
// to drain. Close the listener it was Serve()d with as well.
func (s *Server) Shutdown(l net.Listener) {
	s.stopOnce.Do(func() {
		close(s.done)
		if l != nil {
			l.Close()
		}
		s.pollerWake()
		s.connMu.Lock()
		open := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			open = append(open, c)
		}
		s.connMu.Unlock()
		for _, c := range open {
			s.closeConn(c)
		}
		s.wg.Wait() // readers first: one still ingesting may start a session
		s.sessWg.Wait()
		s.pollerShutdown()
	})
}

// closeConn tears a connection down exactly once: unregister from the
// poller (before closing the fd, so a recycled descriptor can never be
// routed to this conn), close the socket, wake a parked session.
func (s *Server) closeConn(c *conn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	s.pollerUnregister(c)
	c.nc.Close()
	select {
	case c.notify <- struct{}{}:
	default:
	}
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.nConns.Add(-1)
}

// A session holds its responses back while requests are pending, so that a
// pipelined burst of small answers leaves in one write. The hold is bounded
// in bytes (a long pipeline of big result sets streams out instead of
// running into MaxOutbox) and in time (checked between statements: an
// answer waits for a batch of quick statements, not for a long pipeline of
// slow ones), and it ends when the slot parks (flushHeld).
const (
	outboxFlushBytes = 64 << 10
	outboxFlushAfter = time.Millisecond
)

// queue appends a response to the conn's outbox without writing it: the
// path for answers produced outside a session.
func (s *Server) queue(c *conn, b []byte) {
	if len(b) == 0 {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.out = append(c.out, b...)
	over := len(c.out) > s.MaxOutbox
	c.mu.Unlock()
	if over {
		s.shed(c)
	}
}

// shed closes a connection whose client is not draining its responses.
func (s *Server) shed(c *conn) {
	s.cShedSlow.Add(1)
	s.closeConn(c)
}

// releaseLocked moves the responses the session has been holding back in
// enc to the outbox, where the next flush picks them up. With the outbox
// empty the two arrays swap places, so the bytes go out from where they
// were encoded. It reports false when the outbox now exceeds MaxOutbox — a
// client that has stopped draining responses — and the caller sheds the
// connection.
func (s *Server) releaseLocked(c *conn) bool {
	if len(c.enc) == 0 {
		return true
	}
	if len(c.out) == 0 {
		c.out, c.enc = c.enc, recycle(c.out)
	} else {
		c.out = append(c.out, c.enc...)
		c.enc = recycle(c.enc)
	}
	return len(c.out) <= s.MaxOutbox
}

// send queues a response and flushes it from the calling goroutine: the
// path for answers produced outside a session (rejections, protocol
// errors). Sessions queue as they execute and flush once per batch.
func (s *Server) send(c *conn, b []byte) {
	s.queue(c, b)
	c.mu.Lock()
	if c.closed || c.flushing {
		// Whoever is flushing picks the new bytes up before it stops.
		c.mu.Unlock()
		return
	}
	c.flushing = true
	c.mu.Unlock()
	s.drain(c, false)
}

// flushHeld writes out what a session has been holding back. The session's
// slot calls it before parking inside a statement (a tuple-lock wait), so
// answers already computed do not sit out a wait that can last seconds. A
// Rows frame already being streamed stays where it is (only a statement
// that reads has one, and those do not wait on locks); an encoder that has
// written nothing yet is restarted on the buffer it will find afterwards.
func (s *Server) flushHeld(c *conn) {
	if c.rows.open && c.rows.header {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	fits := s.releaseLocked(c)
	if c.rows.open {
		c.rows.Begin(c.enc)
	}
	if !fits || c.flushing || len(c.out) == 0 {
		c.mu.Unlock()
		if !fits {
			s.shed(c)
		}
		return
	}
	c.flushing = true
	c.mu.Unlock()
	s.drain(c, false)
}

func (s *Server) writer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case c := <-s.writeq:
			s.drain(c, true)
		}
	}
}

// drain writes the conn's outbox until it is empty, double-buffering so
// sessions keep appending while a batch is on the wire. The caller owns
// c.flushing, which makes it the only goroutine writing to the socket.
//
// With block false (a session slot, or a reader answering a rejection) the
// writes are non-blocking: whatever the socket buffer does not take is
// handed, with the ownership, to the writer pool, so a slow client never
// holds a pool slot. The writer pool (block true) writes under
// WriteTimeout; a write error or a timeout sheds the connection.
func (s *Server) drain(c *conn, block bool) {
	for {
		c.mu.Lock()
		if c.closed {
			c.flushing = false
			c.mu.Unlock()
			return
		}
		if c.woff == len(c.wbuf) {
			// The batch is on the wire: recycle its buffer, take the next.
			c.wbuf, c.out = c.out, recycle(c.wbuf)
			c.woff = 0
			if len(c.wbuf) == 0 {
				c.flushing = false
				doQuit := c.quit
				c.mu.Unlock()
				if doQuit {
					s.closeConn(c)
				}
				return
			}
		}
		c.mu.Unlock()
		rest := c.wbuf[c.woff:]
		var n int
		var err error
		if block {
			c.nc.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			n, err = c.nc.Write(rest)
		} else {
			n, err = writeNB(c, rest)
		}
		s.cWrites.Add(1)
		s.cBytesOut.Add(int64(n))
		c.woff += n
		if err != nil {
			s.shed(c)
			return
		}
		if n < len(rest) {
			// Non-blocking write, socket buffer full: the rest needs a
			// goroutine that may wait.
			select {
			case s.writeq <- c:
			case <-s.done:
			}
			return
		}
	}
}

// tryAdmit moves a connection with pending work into execution: grant an
// inflight slot and start a session task, or park it in the admission
// queue, or — with both full — reject every pending request with
// OVERLOADED while keeping the connection (and any running peers) alive.
func (s *Server) tryAdmit(c *conn) {
	s.admitMu.Lock()
	c.mu.Lock()
	if c.closed || c.running || c.queued || !c.hasPendingLocked() {
		c.mu.Unlock()
		s.admitMu.Unlock()
		return
	}
	if s.inflight < s.MaxInflight {
		s.inflight++
		c.running = true
		c.mu.Unlock()
		s.admitMu.Unlock()
		s.cAdmitted.Add(1)
		s.startSession(c)
		return
	}
	if len(s.admitq) < s.MaxQueue {
		c.queued = true
		s.admitq = append(s.admitq, c)
		c.mu.Unlock()
		s.admitMu.Unlock()
		s.cQueued.Add(1)
		return
	}
	var out []byte
	n := 0
	for c.hasPendingLocked() {
		c.popPendingLocked()
		out = AppendError(out, ErrCodeOverloaded, "server overloaded: admission queue full")
		n++
	}
	resume := c.paused
	c.paused = false
	c.mu.Unlock()
	s.admitMu.Unlock()
	s.cRejOver.Add(int64(n))
	s.send(c, out)
	if resume {
		s.pollerResume(c)
	}
}

// finishSession releases the conn's inflight grant and hands the slot to
// the next admissible queued connection.
func (s *Server) finishSession() {
	s.admitMu.Lock()
	s.inflight--
	var next *conn
	for len(s.admitq) > 0 {
		cand := s.admitq[0]
		s.admitq = s.admitq[1:]
		cand.mu.Lock()
		if cand.closed || cand.running || !cand.hasPendingLocked() {
			cand.queued = false
			cand.mu.Unlock()
			continue
		}
		cand.queued = false
		cand.running = true
		cand.mu.Unlock()
		next = cand
		break
	}
	if next != nil {
		s.inflight++
	}
	s.admitMu.Unlock()
	if next != nil {
		s.cAdmitted.Add(1)
		s.startSession(next)
	}
}

// startSession runs the conn's statement stream on a co-routine pool
// slot. The caller has already granted the inflight slot and set
// c.running.
func (s *Server) startSession(c *conn) {
	s.sessWg.Add(1)
	if err := c.ps.Submit(); err != nil {
		s.sessWg.Done()
		c.mu.Lock()
		var out []byte
		for c.hasPendingLocked() {
			c.popPendingLocked()
			out = AppendError(out, ErrCodeShutdown, "server shutting down")
		}
		c.running = false
		c.mu.Unlock()
		s.send(c, out)
		s.closeConn(c)
		s.finishSession()
	}
}

// sessState is per-session-task transaction bookkeeping (only the session
// goroutine touches it).
type sessState struct {
	// aborted: a statement inside the explicit transaction failed. The
	// transaction stays open but executes nothing further — statements
	// error until the client sends ROLLBACK (or COMMIT, which rolls
	// back and reports the abort) — so a pipelined batch cannot
	// half-apply after an error.
	aborted bool
}

// runSession is the session task: it executes the conn's pending
// requests in order on one pool slot, parks (YieldLow) while a
// transaction is open with no pending work, and exits — releasing the
// slot — when idle outside a transaction. One conn therefore costs a
// pool slot only while it has work or an open transaction.
//
// Responses are encoded into the conn's enc buffer and held there while
// requests are pending; the slot releases them to the outbox and writes
// them itself, without blocking, when the queue runs empty — so a pipelined
// burst is answered with one write, and a synchronous round trip wakes no
// goroutine between execution and the socket. Held answers also leave when
// they have waited outboxFlushAfter at a statement boundary, and before the
// slot parks inside a statement.
func (s *Server) runSession(c *conn, ps *phoebedb.PoolSession) {
	defer s.sessWg.Done()
	s.nActive.Add(1)
	defer s.nActive.Add(-1)
	c.st = sessState{}
	ps.BeforePark(c.flushHeld)
	for {
		c.mu.Lock()
		c.busy = false // the previous request's body is no longer needed
		if c.closed {
			c.mu.Unlock()
			if ps.InTxn() {
				ps.Rollback()
				s.cDiscRB.Add(1)
			}
			s.finishSession()
			return
		}
		idle := !c.hasPendingLocked()
		due := len(c.enc) >= outboxFlushBytes || len(c.enc) > 0 && time.Since(c.encSince) > outboxFlushAfter
		if (due || idle) && !s.releaseLocked(c) {
			c.mu.Unlock()
			s.shed(c)
			continue
		}
		if !c.flushing && (len(c.out) > 0 || idle && c.quit) {
			c.flushing = true
			c.mu.Unlock()
			s.drain(c, false)
			continue // frames may have arrived during the write
		}
		if idle {
			if !ps.InTxn() {
				// Nothing of this task may touch c's session state past this
				// point: the next frame starts the conn's next task.
				c.running = false
				if cap(c.arena) > arenaKeep {
					c.arena = nil
				}
				c.mu.Unlock()
				s.finishSession()
				return
			}
			c.waiting = true
			c.mu.Unlock()
			fired := ps.Park(c.notify, s.IdleTxnTimeout)
			c.mu.Lock()
			c.waiting = false
			empty := !c.hasPendingLocked()
			closed := c.closed
			c.mu.Unlock()
			if !fired && empty && !closed {
				ps.Rollback()
				c.st.aborted = false
				s.cIdleRB.Add(1)
			}
			continue
		}
		req := c.popPendingLocked()
		c.busy = true
		resume := c.paused && c.depthLocked() < s.MaxPipeline
		if resume {
			c.paused = false
		}
		c.mu.Unlock()
		if resume {
			s.pollerResume(c)
		}
		wait := time.Since(req.at)
		ps.ChargeQueueWait(wait)
		s.hQueueWait.Observe(wait)
		if len(c.enc) == 0 {
			c.encSince = time.Now()
		}
		var quit bool
		c.enc, quit = s.execute(c, ps, &req, c.enc)
		if quit {
			// The flush that finds the outbox empty closes the connection.
			c.mu.Lock()
			c.quit = true
			c.mu.Unlock()
		}
	}
}

// isDDL mirrors the SQL layer's DDL set (CREATE TABLE / CREATE INDEX)
// with a prefix test — CREATE followed by whitespace, as the lexer reads it
// — so the front end can route DDL outside the session without parsing
// twice.
func isDDL(q string) bool {
	q = strings.TrimSpace(q)
	return len(q) > 6 && strings.EqualFold(q[:6], "create") && unicode.IsSpace(rune(q[6]))
}

// borrowString views b as a string without copying it. The caller
// guarantees b is not written while the string is in use and that the
// string is not kept beyond that — here: a request body, which stays put
// in the conn's arena until its statement has finished (conn.busy), handed
// to PoolSession.ExecSQL, which only reads its query argument.
func borrowString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// execute runs one request and appends its response frame to dst.
// quit=true closes the connection after the outbox flushes.
func (s *Server) execute(c *conn, ps *phoebedb.PoolSession, req *request, dst []byte) (resp []byte, quit bool) {
	st := &c.st
	if req.failCode != "" {
		return AppendError(dst, req.failCode, req.failMsg), false
	}
	switch req.typ {
	case FrameHello:
		if len(req.body) < 2 || uint16(req.body[0])<<8|uint16(req.body[1]) != ProtocolVersion {
			return AppendError(dst, ErrCodeProtocol,
				fmt.Sprintf("unsupported protocol version (server speaks %d)", ProtocolVersion)), false
		}
		return AppendOK(dst, 0), false

	case FrameQuery:
		if st.aborted {
			return AppendError(dst, ErrCodeTxn,
				"current transaction is aborted, commands ignored until end of transaction block"), false
		}
		if isDDL(borrowString(req.body)) {
			if ps.InTxn() {
				return AppendError(dst, ErrCodeTxn, "DDL is not transactional"), false
			}
			// DDL keeps its text (catalog names): give it its own.
			res, err := s.DB.ExecSQL(string(req.body))
			if err != nil {
				return AppendError(dst, ErrCodeSQL, err.Error()), false
			}
			return AppendOK(dst, res.Affected), false
		}
		// A SELECT's rows stream from the scan into the response buffer.
		c.rows.Begin(dst)
		n, err := ps.ExecSQL(borrowString(req.body), &c.rows)
		if err != nil {
			// Inside an explicit transaction the session enters the
			// aborted state: the transaction stays open (keeping the
			// session task alive) but executes nothing further, so a
			// pipelined batch cannot half-apply past an error. ROLLBACK
			// or COMMIT ends it.
			if ps.InTxn() {
				st.aborted = true
			}
			return AppendError(c.rows.Abort(), ErrCodeSQL, err.Error()), false
		}
		dst, rows, ok := c.rows.End()
		switch {
		case !ok:
			return AppendError(dst, ErrCodeTooLarge, "result set exceeds the 1 MiB frame limit"), false
		case !rows:
			return AppendOK(dst, n), false
		}
		return dst, false

	case FrameBegin:
		if ps.InTxn() || st.aborted {
			return AppendError(dst, ErrCodeTxn, "transaction already in progress"), false
		}
		iso := ps.DefaultIsolation()
		if len(req.body) >= 1 {
			switch req.body[0] {
			case 0:
			case 1:
				iso = phoebedb.ReadCommitted
			case 2:
				iso = phoebedb.RepeatableRead
			default:
				return AppendError(dst, ErrCodeProtocol, "unknown isolation level"), false
			}
		}
		if err := ps.Begin(iso); err != nil {
			return AppendError(dst, ErrCodeTxn, err.Error()), false
		}
		return AppendOK(dst, 0), false

	case FrameCommit:
		if st.aborted {
			st.aborted = false
			if ps.InTxn() {
				ps.Rollback()
			}
			return AppendError(dst, ErrCodeTxn, "transaction aborted; changes rolled back"), false
		}
		if !ps.InTxn() {
			return AppendError(dst, ErrCodeTxn, "no transaction in progress"), false
		}
		if err := ps.Commit(); err != nil {
			return AppendError(dst, ErrCodeSQL, err.Error()), false
		}
		return AppendOK(dst, 0), false

	case FrameRollback:
		st.aborted = false
		if ps.InTxn() {
			ps.Rollback()
		}
		return AppendOK(dst, 0), false

	case FrameQuit:
		return AppendOK(dst, 0), true

	default:
		return AppendError(dst, ErrCodeProtocol,
			fmt.Sprintf("unknown frame type %q", req.typ)), false
	}
}

// registerMetrics exposes the front end through the database's metrics
// registry and the phoebe_stat_server virtual table.
func (s *Server) registerMetrics() {
	reg := s.DB.Metrics()
	reg.Gauge("phoebe_server_connections", "open client connections", s.nConns.Load)
	reg.Gauge("phoebe_server_active", "session tasks currently holding a pool slot", s.nActive.Load)
	reg.Counter("phoebe_server_admitted", "session tasks started (statement batches admitted)", s.cAdmitted.Load)
	reg.Counter("phoebe_server_queued", "connections that waited in the admission queue", s.cQueued.Load)
	reg.CounterVec("phoebe_server_rejected", "requests rejected by admission control", "reason",
		func() []metrics.LabeledValue {
			return []metrics.LabeledValue{
				{Label: "overloaded", Value: s.cRejOver.Load()},
				{Label: "connections", Value: s.cRejConns.Load()},
			}
		})
	reg.Counter("phoebe_server_oversized", "client frames over the 1 MiB limit (discarded, session kept)", s.cOversized.Load)
	reg.Counter("phoebe_server_shed_slow", "connections shed for not draining responses", s.cShedSlow.Load)
	reg.Counter("phoebe_server_idle_rollbacks", "transactions rolled back by the idle-in-transaction timeout", s.cIdleRB.Load)
	reg.Counter("phoebe_server_disconnect_rollbacks", "transactions rolled back because the client disconnected", s.cDiscRB.Load)
	reg.Counter("phoebe_server_bytes_in", "bytes read from clients", s.cBytesIn.Load)
	reg.Counter("phoebe_server_bytes_out", "bytes written to clients", s.cBytesOut.Load)
	reg.Histogram("phoebe_server_pipelined_depth", "pending pipelined requests per connection at enqueue (unit: requests, not seconds)",
		"", "", s.hDepth.Snapshot)
	reg.Histogram("phoebe_server_queue_wait", "time from frame decode to execution start",
		"", "", s.hQueueWait.Snapshot)

	schema := rel.NewSchema(
		rel.Column{Name: "name", Type: rel.TString},
		rel.Column{Name: "value", Type: rel.TInt64},
	)
	s.DB.RegisterStatTable("phoebe_stat_server", func() (*rel.Schema, []rel.Row) {
		row := func(name string, v int64) rel.Row {
			return rel.Row{rel.Str(name), rel.Int(v)}
		}
		return schema, []rel.Row{
			row("connections", s.nConns.Load()),
			row("active_sessions", s.nActive.Load()),
			row("admitted", s.cAdmitted.Load()),
			row("queued", s.cQueued.Load()),
			row("rejected_overloaded", s.cRejOver.Load()),
			row("rejected_connections", s.cRejConns.Load()),
			row("oversized_frames", s.cOversized.Load()),
			row("shed_slow_clients", s.cShedSlow.Load()),
			row("idle_txn_rollbacks", s.cIdleRB.Load()),
			row("disconnect_rollbacks", s.cDiscRB.Load()),
			row("bytes_in", s.cBytesIn.Load()),
			row("bytes_out", s.cBytesOut.Load()),
			row("max_connections", int64(s.MaxConnections)),
			row("max_inflight", int64(s.MaxInflight)),
			row("max_pipeline", int64(s.MaxPipeline)),
			row("pool_slots", int64(s.DB.PoolSlots())),
		}
	})
}

// MetricsHandler serves the database's metrics registry in the
// Prometheus text exposition format, plus the slow-transaction dump at
// /slowlog.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.DB.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.DB.SlowLog().Dump(w)
	})
	return mux
}

// ServeMetrics serves the metrics endpoint on addr until the HTTP server
// fails. Run in its own goroutine.
func (s *Server) ServeMetrics(addr string) error {
	return http.ListenAndServe(addr, s.MetricsHandler())
}
