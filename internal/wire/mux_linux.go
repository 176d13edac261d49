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

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
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
// the connection's current reader, wr to whoever holds conn.flushing.
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
	buf []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

// init binds the syscall. The callback always returns true, "don't wait
// for readiness" — the whole point: EAGAIN surfaces to the caller instead
// of parking a goroutine.
func (io *nbIO) init(call func(fd int, p []byte) (int, error)) {
	io.fn = func(fd uintptr) bool {
		for {
			io.n, io.err = call(int(fd), io.buf)
			if io.err != syscall.EINTR {
				return true
			}
		}
	}
}

// run performs the syscall once on p through raw, which pins the fd
// against close/reuse for its duration.
func (io *nbIO) run(raw syscall.RawConn, write bool, p []byte) (int, error) {
	io.buf, io.n, io.err = p, 0, nil
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
// EAGAIN, or after the session drained a full pipeline (backpressure
// release). The token check makes resume-after-close a no-op.
func (s *Server) pollerResume(c *conn) {
	s.poll.mu.Lock()
	if s.poll.toks[c.poll.tok] == c {
		syscall.EpollCtl(s.poll.epfd, syscall.EPOLL_CTL_MOD, c.poll.fd,
			&syscall.EpollEvent{Events: connEvents, Fd: int32(c.poll.tok)})
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
func (s *Server) serveRead(c *conn, buf []byte) {
	for {
		n, err := readNB(c, buf)
		if n > 0 {
			s.cBytesIn.Add(int64(n))
			switch s.ingest(c, buf[:n]) {
			case ingestDead, ingestPaused:
				return
			}
		}
		if err == syscall.EAGAIN {
			s.pollerResume(c)
			return
		}
		if err != nil || n == 0 { // error or EOF
			s.closeConn(c)
			return
		}
	}
}

// readNB performs one non-blocking read.
func readNB(c *conn, p []byte) (int, error) {
	return c.poll.rd.run(c.poll.raw, false, p)
}

// writeNB performs one non-blocking write. A short count with a nil error
// means the socket buffer is full.
func writeNB(c *conn, p []byte) (int, error) {
	n, err := c.poll.wr.run(c.poll.raw, true, p)
	if err == syscall.EAGAIN {
		err = nil
	}
	return n, err
}
