package wire

import (
	"net"
	"sync"
	"time"
)

// request is one decoded client frame waiting for its session task, or a
// pre-failed placeholder (an oversized frame already discarded by the
// reader) that still owes the client an in-order error response.
type request struct {
	typ  byte
	body []byte
	at   time.Time // enqueue time; charged to the "server" wait event
	// failCode, when non-empty, short-circuits execution: the response is
	// an Error frame with this code/message.
	failCode string
	failMsg  string
}

// conn is one client connection. Its read-side buffers (rbuf, skip) are
// touched only by the single reader that currently owns the connection
// (EPOLLONESHOT on Linux, the dedicated read goroutine elsewhere), its
// write-side batch (wbuf, woff) only by the goroutine that holds flushing;
// everything else is guarded by mu. Lock order: Server.admitMu before
// conn.mu.
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

	mu      sync.Mutex
	closed  bool
	quit    bool // client sent Quit: close once the outbox drains
	pending []request
	phead   int
	running bool   // a session task owns this conn
	waiting bool   // the session task is parked awaiting the next frame
	queued  bool   // sitting in the admission queue
	paused  bool   // pipeline full: reads stay un-armed until drained
	out     []byte // responses not yet handed to a write
	// outSince is when out last went from empty to holding a response.
	outSince time.Time
	// flushing marks the one goroutine (session slot, rejecting reader or
	// pool writer) that is writing wbuf[woff:] and then out to the socket.
	flushing bool
	wbuf     []byte
	woff     int

	// notify wakes a parked session task (new frame or close). Cap 1;
	// sends are non-blocking.
	notify chan struct{}
	// flushHeld is Server.flushHeld bound to this conn, built once so a
	// session start allocates nothing for it.
	flushHeld func()
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

// ingest consumes freshly read bytes: it splits frames out of the stream,
// enqueues them as requests, discards oversized frames (queueing an
// in-order TOO_LARGE response), and decides whether the connection needs
// admission or backpressure. Called only by the conn's current reader.
func (s *Server) ingest(c *conn, data []byte) ingestResult {
	buf := data
	if len(c.rbuf) > 0 {
		buf = append(c.rbuf, data...)
	}
	now := time.Now()
	var reqs []request
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
			reqs = append(reqs, request{at: now, failCode: ErrCodeTooLarge,
				failMsg: "frame exceeds 1 MiB limit"})
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
				reqs = append(reqs, request{at: now, failCode: ErrCodeTooLarge,
					failMsg: "frame exceeds 1 MiB limit"})
				continue
			}
			buf = buf[len(buf):]
			continue
		}
		f, n, err := ParseFrame(buf)
		if err != nil {
			s.send(c, AppendError(nil, ErrCodeProtocol, err.Error()))
			s.closeConn(c)
			return ingestDead
		}
		if n == 0 {
			break
		}
		body := make([]byte, len(f.Body))
		copy(body, f.Body)
		reqs = append(reqs, request{typ: f.Type, body: body, at: now})
		buf = buf[n:]
	}
	// Compact the partial tail into the conn's own buffer: buf may alias
	// the reader's scratch slice, which is reused for other conns.
	c.rbuf = append(c.rbuf[:0], buf...)

	if len(reqs) == 0 {
		return ingestMore
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ingestDead
	}
	c.pending = append(c.pending, reqs...)
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
	} else if admit {
		s.tryAdmit(c)
	}
	if paused {
		return ingestPaused
	}
	return ingestMore
}
