package wire

import (
	"net"
	"sync"
	"time"

	phoebedb "phoebedb"
)

// request is one decoded client frame waiting for its session task, or a
// pre-failed placeholder (an oversized frame already discarded by the
// reader) that still owes the client an in-order error response.
type request struct {
	typ byte
	// body lives in the conn's arena (or, when that was full, in an array
	// of its own) and is valid until the session has finished executing
	// the request.
	body []byte
	at   time.Time // enqueue time; charged to the "server" wait event
	// failCode, when non-empty, short-circuits execution: the response is
	// an Error frame with this code/message.
	failCode string
	failMsg  string
}

// Bounds on what a connection keeps between statements. A response buffer
// that a large result grew past respKeep is dropped when it empties, not
// recycled; the body arena never grows past arenaMax (frames beyond it get
// arrays of their own) and an idle connection keeps at most arenaKeep of it.
const (
	respKeep  = 2 * outboxFlushBytes
	arenaMax  = 64 << 10
	arenaKeep = 4 << 10
)

// recycle empties a response buffer for reuse, letting an outsized one go.
func recycle(b []byte) []byte {
	if cap(b) > respKeep {
		return nil
	}
	return b[:0]
}

// conn is one client connection. Its read-side buffers (rbuf, skip) are
// touched only by the single reader that currently owns the connection
// (on Linux the reader EPOLLONESHOT handed it to, or its session while
// selfRead is set; the dedicated read goroutine elsewhere), its
// write-side batch (wbuf, woff) only by the goroutine that holds flushing,
// its session state (ps, st, enc, encSince, rows) only by its session task
// — one at a time, see running; everything else is guarded by mu. Lock
// order: Server.admitMu before conn.mu before pollState.mu.
type conn struct {
	srv *Server
	nc  net.Conn

	// poll is per-platform read-side state (fd + token on Linux, the
	// resume channel for the blocking fallback).
	poll pollConn

	// rbuf holds a partial frame between reads; skip counts remaining
	// bytes of an oversized frame being discarded.
	rbuf []byte
	skip int

	mu     sync.Mutex
	closed bool
	quit   bool // client sent Quit: close once the outbox drains
	// pending[phead:] is the queue of decoded requests. Its array is
	// reused: popping advances phead, pushing into a full array first
	// moves the live entries down.
	pending []request
	phead   int
	// arena holds the bodies of the queued requests and of the one being
	// executed (busy). It is rewound when both are gone.
	arena   []byte
	busy    bool
	running bool   // a session task owns this conn
	waiting bool   // the session task is parked awaiting a wake-up on notify
	queued  bool   // sitting in the admission queue
	paused  bool   // pipeline full: reads stay un-armed until drained
	out     []byte // responses released for writing, not yet handed to a write
	// selfRead: the session, inside a transaction, reads the socket itself
	// and the epoll registration stays disarmed; reading: a pool reader is
	// draining the socket. Linux only (DESIGN.md §4.14).
	selfRead bool
	reading  bool
	// flushing marks the one goroutine (session slot, rejecting reader or
	// pool writer) that is writing wbuf[woff:] and then out to the socket.
	flushing bool
	wbuf     []byte
	woff     int

	// notify wakes a parked session task (new frame or close). Cap 1;
	// sends are non-blocking.
	notify chan struct{}

	// ps is the connection's session handle and flushHeld Server.flushHeld
	// bound to this conn, both built once at accept so that starting a
	// session task allocates nothing.
	ps        *phoebedb.PoolSession
	flushHeld func()
	st        sessState // kept from task to task until the transaction ends
	// enc is where the session encodes its responses, and holds them back
	// in while requests are pending; release moves them to out (swapping
	// the two arrays when out is empty, so a response is written where it
	// was encoded). encSince is when enc last went from empty to holding a
	// response.
	enc      []byte
	encSince time.Time
	// rows streams a SELECT's result from the scan into enc.
	rows rowsEncoder
}

func (c *conn) depthLocked() int { return len(c.pending) - c.phead }

func (c *conn) hasPendingLocked() bool { return c.phead < len(c.pending) }

func (c *conn) popPendingLocked() request {
	req := c.pending[c.phead]
	c.pending[c.phead] = request{}
	c.phead++
	if c.phead == len(c.pending) {
		c.pending = c.pending[:0]
		c.phead = 0
	}
	return req
}

func (c *conn) pushPendingLocked(req request) {
	if c.phead > 0 && len(c.pending) == cap(c.pending) {
		n := copy(c.pending, c.pending[c.phead:])
		clear(c.pending[n:])
		c.pending, c.phead = c.pending[:n], 0
	}
	c.pending = append(c.pending, req)
}

// keepBodyLocked copies a frame body out of the read buffer into the arena.
func (c *conn) keepBodyLocked(body []byte) []byte {
	if len(body) == 0 {
		return nil
	}
	if len(c.arena)+len(body) > arenaMax {
		return append([]byte(nil), body...)
	}
	off := len(c.arena)
	// If this append moves the arena, earlier bodies keep the old array.
	c.arena = append(c.arena, body...)
	return c.arena[off:len(c.arena):len(c.arena)]
}

// ingest outcome for the platform read loops.
type ingestResult int

const (
	// ingestMore: keep reading.
	ingestMore ingestResult = iota
	// ingestPaused: the pipeline limit was hit; stop reading until the
	// session drains the queue (Server.resumeRead re-arms).
	ingestPaused
	// ingestDead: the connection was shed (protocol violation).
	ingestDead
)

// ingest consumes freshly read bytes: it splits frames out of the stream
// where they lie, queues each as a request (its body copied into the
// conn's arena), discards oversized frames (queueing an in-order TOO_LARGE
// response), and decides whether the connection needs admission or
// backpressure. Called only by the conn's current reader. It returns the
// number of frames queued.
func (s *Server) ingest(c *conn, data []byte) (int, ingestResult) {
	buf := data
	if len(c.rbuf) > 0 {
		c.rbuf = append(c.rbuf, data...)
		buf = c.rbuf
	}
	now := time.Now()
	tooLarge := request{at: now, failCode: ErrCodeTooLarge, failMsg: "frame exceeds 1 MiB limit"}
	queued := 0
	var perr error

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ingestDead
	}
	if !c.busy && !c.hasPendingLocked() {
		c.arena = c.arena[:0]
	}
	for {
		if c.skip > 0 {
			n := c.skip
			if n > len(buf) {
				n = len(buf)
			}
			buf = buf[n:]
			c.skip -= n
			if c.skip > 0 {
				break
			}
			c.pushPendingLocked(tooLarge)
			queued++
			continue
		}
		ln, ok := PeekLength(buf)
		if !ok {
			break
		}
		if ln > MaxFrame {
			s.cOversized.Add(1)
			c.skip = ln - (len(buf) - 4)
			if c.skip <= 0 {
				// The whole oversized frame is already buffered.
				buf = buf[4+ln:]
				c.skip = 0
				c.pushPendingLocked(tooLarge)
				queued++
				continue
			}
			buf = buf[len(buf):]
			continue
		}
		f, n, err := ParseFrame(buf)
		if err != nil {
			perr = err
			break
		}
		if n == 0 {
			break
		}
		c.pushPendingLocked(request{typ: f.Type, body: c.keepBodyLocked(f.Body), at: now})
		queued++
		buf = buf[n:]
	}
	if perr != nil {
		c.mu.Unlock()
		s.send(c, AppendError(nil, ErrCodeProtocol, perr.Error()))
		s.closeConn(c)
		return queued, ingestDead
	}
	// Keep the partial tail in the conn's own buffer: buf may alias the
	// reader's scratch slice, which is reused for other conns.
	c.rbuf = append(c.rbuf[:0], buf...)
	if queued == 0 {
		c.mu.Unlock()
		return 0, ingestMore
	}
	depth := c.depthLocked()
	if depth >= s.MaxPipeline {
		c.paused = true
	}
	wake := c.waiting
	admit := !c.running && !c.queued
	paused := c.paused
	c.mu.Unlock()

	s.hDepth.Observe(time.Duration(depth))
	if wake {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	} else if admit && s.tryAdmit(c) {
		paused = false // the rejection emptied the queue
	}
	if paused {
		return queued, ingestPaused
	}
	return queued, ingestMore
}
