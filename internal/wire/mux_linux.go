//go:build linux

package wire

// The Linux read path is a multiplexer: idle connections cost one epoll
// registration and ~no memory, not a parked goroutine. A small fixed pool
// of reader goroutines call epoll_wait themselves and drain whatever
// connection an event names with non-blocking reads, decoding frames as
// they go — no goroutine relays an event to another. EPOLLONESHOT
// guarantees a connection is owned by at most one reader at a time; the
// reader re-arms after hitting EAGAIN (or the session re-arms after
// draining a full pipeline), so total goroutines are O(readers +
// writers + active sessions), independent of open connections.
//
// A reader with nothing ready must not sit in a blocking epoll_wait: that
// pins an OS thread and strands its P until sysmon retakes it. The epoll
// descriptor is itself pollable, so it is registered with the Go runtime's
// network poller through an os.File. Readers call epoll_wait with a zero
// timeout; on "nothing ready" the one whose turn it is parks as a
// goroutine until the runtime reports the descriptor readable, the others
// queue behind it on the file's read lock.
//
// Events are routed by token, not file descriptor: the kernel can
// recycle an fd the instant it closes, but a token is never reused, so
// a stale event left in the epoll ring after a close can at worst miss
// in the token map — it can never reach the wrong connection. Tokens
// are deleted (and EPOLL_CTL_DEL issued) before the fd is closed.
//
// A session inside a transaction takes its socket over (awaitFrame): the
// registration is disarmed and the session's pool slot waits for the next
// frame parked in the runtime poller on the socket itself, so a statement
// costs one wake-up, not a reader's and then the slot's. The session hands
// the socket back when it goes idle outside a transaction.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	phoebedb "phoebedb"
)

type pollState struct {
	epfd int
	// ep owns epfd on behalf of the runtime poller; raw is its parking
	// handle. epfd stays valid until ep is closed in pollerShutdown.
	ep      *os.File
	raw     syscall.RawConn
	mu      sync.Mutex
	toks    map[uint32]*conn
	nextTok uint32
}

// pollConn is the per-connection socket state: the raw-syscall handle for
// non-blocking reads and writes and the epoll routing token. rd belongs to
// the connection's current reader (a pool reader, or its session while
// conn.selfRead is set), wr to whoever holds conn.flushing.
type pollConn struct {
	raw    syscall.RawConn
	fd     int
	tok    uint32
	rd, wr nbIO
}

// nbIO is one direction's non-blocking syscall on a connection. The
// callback handed to the RawConn is built once and takes its argument and
// leaves its result in the struct, so a read or write allocates nothing.
type nbIO struct {
	buf  []byte
	wait bool
	n    int
	err  error
	fn   func(fd uintptr) bool
}

// init binds the syscall. Unless wait is set the callback returns true,
// "don't wait for readiness" — EAGAIN surfaces to the caller instead of
// parking a goroutine. With wait set it returns false on EAGAIN, and the
// RawConn parks the caller in the runtime poller until the socket is ready
// (or its deadline passes), then calls it again.
func (io *nbIO) init(call func(fd int, p []byte) (int, error)) {
	io.fn = func(fd uintptr) bool {
		for {
			io.n, io.err = call(int(fd), io.buf)
			if io.err != syscall.EINTR {
				return !io.wait || io.err != syscall.EAGAIN
			}
		}
	}
}

// run performs the syscall once on p through raw, which pins the fd
// against close/reuse for its duration; with wait, once it has something
// to report.
func (io *nbIO) run(raw syscall.RawConn, write, wait bool, p []byte) (int, error) {
	io.buf, io.wait, io.n, io.err = p, wait, 0, nil
	var cerr error
	if write {
		cerr = raw.Write(io.fn)
	} else {
		cerr = raw.Read(io.fn)
	}
	io.buf = nil
	if io.n < 0 {
		io.n = 0
	}
	if cerr != nil {
		return io.n, cerr
	}
	return io.n, io.err
}

func (s *Server) pollerInit() error {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return err
	}
	// os.NewFile hands only non-blocking descriptors to the runtime poller.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return err
	}
	ep := os.NewFile(uintptr(epfd), "epoll")
	raw, err := ep.SyscallConn()
	if err == nil {
		// Deadlines work only on files the runtime poller accepted.
		err = ep.SetReadDeadline(time.Time{})
	}
	if err != nil {
		ep.Close()
		return fmt.Errorf("wire: epoll descriptor not pollable by the runtime: %w", err)
	}
	s.poll.epfd = epfd
	s.poll.ep = ep
	s.poll.raw = raw
	s.poll.toks = make(map[uint32]*conn)
	return nil
}

func (s *Server) pollerShutdown() { s.poll.ep.Close() }

// pollerWake ends every reader's wait, now and from now on: an expired
// read deadline fails the parked reader and each later attempt to park.
func (s *Server) pollerWake() { s.poll.ep.SetReadDeadline(time.Unix(1, 0)) }

const connEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT

func (s *Server) pollerRegister(c *conn) error {
	sc, ok := c.nc.(syscall.Conn)
	if !ok {
		return syscall.EINVAL
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	c.poll.raw = raw
	if err := raw.Control(func(fd uintptr) { c.poll.fd = int(fd) }); err != nil {
		return err
	}
	c.poll.rd.init(syscall.Read)
	c.poll.wr.init(syscall.Write)
	s.poll.mu.Lock()
	s.poll.nextTok++
	c.poll.tok = s.poll.nextTok
	s.poll.toks[c.poll.tok] = c
	err = syscall.EpollCtl(s.poll.epfd, syscall.EPOLL_CTL_ADD, c.poll.fd,
		&syscall.EpollEvent{Events: connEvents, Fd: int32(c.poll.tok)})
	if err != nil {
		delete(s.poll.toks, c.poll.tok)
	}
	s.poll.mu.Unlock()
	return err
}

// pollerResume re-arms the oneshot registration after a reader hit
// EAGAIN, after the session drained a full pipeline (backpressure
// release), or when a session hands its socket back. The token check makes
// resume-after-close a no-op.
func (s *Server) pollerResume(c *conn) { s.pollerMod(c, connEvents) }

// pollerDisarm turns the registration off while the session reads the
// socket itself. The kernel keeps EPOLLERR and EPOLLHUP in every mask, so
// a hang-up can still fire it once; the reader drops that event (see
// serveRead).
func (s *Server) pollerDisarm(c *conn) { s.pollerMod(c, syscall.EPOLLONESHOT) }

func (s *Server) pollerMod(c *conn, events uint32) {
	s.poll.mu.Lock()
	if s.poll.toks[c.poll.tok] == c {
		syscall.EpollCtl(s.poll.epfd, syscall.EPOLL_CTL_MOD, c.poll.fd,
			&syscall.EpollEvent{Events: events, Fd: int32(c.poll.tok)})
	}
	s.poll.mu.Unlock()
}

// pollerUnregister runs before the fd closes (see closeConn).
func (s *Server) pollerUnregister(c *conn) {
	s.poll.mu.Lock()
	if s.poll.toks[c.poll.tok] == c {
		delete(s.poll.toks, c.poll.tok)
		syscall.EpollCtl(s.poll.epfd, syscall.EPOLL_CTL_DEL, c.poll.fd, nil)
	}
	s.poll.mu.Unlock()
}

func (s *Server) startReaders() {
	for i := 0; i < s.pool; i++ {
		s.wg.Add(1)
		go s.reader()
	}
}

// reader is one of the pool's read loops: wait for events, then serve each
// connection named, on this goroutine.
func (s *Server) reader() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	events := make([]syscall.EpollEvent, 64)
	var n int
	var werr error
	poll := func(fd uintptr) bool {
		for {
			n, werr = syscall.EpollWait(int(fd), events, 0)
			if werr != syscall.EINTR {
				return n != 0 // nothing ready: park until the descriptor is
			}
		}
	}
	for {
		n, werr = 0, nil
		if err := s.poll.raw.Read(poll); err != nil || werr != nil {
			return // Shutdown's deadline (or a broken epoll descriptor)
		}
		for i := 0; i < n; i++ {
			s.poll.mu.Lock()
			c := s.poll.toks[uint32(events[i].Fd)]
			s.poll.mu.Unlock()
			if c != nil {
				s.serveRead(c, buf)
			}
		}
	}
}

// serveRead drains one readable connection: non-blocking reads until
// EAGAIN (then re-arm), EOF/error (then close), or pipeline-full (then
// leave un-armed; the session resumes reads when it drains).
//
// The event is dropped when the conn's session has taken the socket over
// (it reads what the event announced) or another reader is draining it
// (possible only for an event pulled before a takeover and served after
// the session handed the socket back; the draining reader reads on to
// EAGAIN and re-arms).
func (s *Server) serveRead(c *conn, buf []byte) {
	if hookServeRead != nil {
		hookServeRead()
	}
	c.mu.Lock()
	if c.selfRead || c.reading || c.closed {
		c.mu.Unlock()
		return
	}
	c.reading = true
	c.mu.Unlock()
	for {
		n, err := readNB(c, buf)
		if n > 0 {
			s.cBytesIn.Add(int64(n))
			switch _, res := s.ingest(c, buf[:n]); res {
			case ingestDead, ingestPaused:
				s.readDone(c, false)
				return
			}
		}
		if err == syscall.EAGAIN {
			s.readDone(c, true)
			return
		}
		if err != nil || n == 0 { // error or EOF
			s.readDone(c, false)
			s.closeConn(c)
			return
		}
	}
}

// readDone ends a reader's turn on c. It re-arms the registration, if
// asked to, unless the session has taken the socket over meanwhile, and
// wakes a session waiting for the reader to finish. The re-arm runs after
// the unlock, so a session starting on the frames just read does not queue
// behind the syscall; should a takeover slip in between, the registration
// is armed under a self-reading session, and the one event it can deliver
// is dropped (serveRead).
func (s *Server) readDone(c *conn, rearm bool) {
	c.mu.Lock()
	c.reading = false
	rearm = rearm && !c.selfRead
	wake := c.waiting
	c.mu.Unlock()
	if rearm {
		s.pollerResume(c)
	}
	if wake {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// takeSocket makes the session the conn's reader: selfRead keeps every
// pool reader off the socket from now on, and the registration is
// disarmed. A reader already draining the socket finishes first (see
// awaitFrame). Called with c.mu held.
func (s *Server) takeSocket(c *conn) {
	if hookTakeover != nil {
		c.mu.Unlock()
		hookTakeover()
		c.mu.Lock()
	}
	c.selfRead = true
	s.pollerDisarm(c)
}

// awaitFrame waits for the next frame of a session idle inside a
// transaction, reading the conn's socket on the session's own slot (see
// takeSocket). A reader still draining the socket is waited out first
// (readDone wakes the session); frames it queues meanwhile run first.
// Called with c.mu held; returns with it released, reporting whether
// IdleTxnTimeout passed with nothing read.
func (s *Server) awaitFrame(c *conn, ps *phoebedb.PoolSession) (expired bool) {
	if c.reading {
		c.waiting = true
		c.mu.Unlock()
		<-c.notify
		c.mu.Lock()
		c.waiting = false
		c.mu.Unlock()
		return false
	}
	if c.closed || c.hasPendingLocked() {
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()

	buf := s.slotBufs[ps.Slot()]
	if buf == nil {
		buf = make([]byte, sessionReadBuf)
		s.slotBufs[ps.Slot()] = buf
	}
	c.nc.SetReadDeadline(time.Now().Add(s.IdleTxnTimeout))
	start := ps.ClientWaitBegin()
	n, err := c.poll.rd.run(c.poll.raw, false, true, buf)
	ps.ClientWaitEnd(start)
	if n > 0 {
		s.cBytesIn.Add(int64(n))
		frames, _ := s.ingest(c, buf[:n])
		s.cSessReads.Add(int64(frames))
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	s.closeConn(c) // EOF, a socket error, or closed under the wait
	return false
}

// sessionReadBuf sizes a pool slot's buffer for reading its session's own
// socket: a statement frame, or a pipelined run of them (a larger frame
// takes several reads).
const sessionReadBuf = 16 << 10

// endSelfRead hands the socket back to the pool readers when the session
// leaves: it clears the wait's deadline and re-arms the registration, which
// reports data that is already there. Called with c.mu held, so a reader's
// ingest cannot slip in between the re-arm and the session's exit. A reader
// still draining re-arms when it is done.
func (s *Server) endSelfRead(c *conn) {
	if !c.selfRead {
		return
	}
	c.selfRead = false
	c.nc.SetReadDeadline(time.Time{})
	if !c.reading {
		s.pollerResume(c)
	}
}

// Test hooks, nil outside tests: a reader is about to serve an event; a
// session is about to take its socket over.
var hookServeRead, hookTakeover func()

// readNB performs one non-blocking read.
func readNB(c *conn, p []byte) (int, error) {
	return c.poll.rd.run(c.poll.raw, false, false, p)
}

// writeNB performs one non-blocking write. A short count with a nil error
// means the socket buffer is full.
func writeNB(c *conn, p []byte) (int, error) {
	n, err := c.poll.wr.run(c.poll.raw, true, false, p)
	if err == syscall.EAGAIN {
		err = nil
	}
	return n, err
}
