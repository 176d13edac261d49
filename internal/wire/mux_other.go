//go:build !linux

package wire

// Portable fallback read path: one blocking-read goroutine per
// connection. Functionally identical to the Linux epoll multiplexer
// (same framing, admission, and backpressure), but idle connections
// cost a parked goroutine each — O(connections) instead of O(pool).
// The connmux benchmark gate runs on Linux, where the epoll path is
// compiled in. There is no portable non-blocking write either, so every
// flush is handed to the writer pool.

import phoebedb "phoebedb"

type pollState struct{}

// pollConn carries the resume signal for a paused (pipeline-full)
// connection.
type pollConn struct {
	resume chan struct{}
}

func (s *Server) pollerInit() error        { return nil }
func (s *Server) pollerShutdown()          {}
func (s *Server) pollerWake()              {}
func (s *Server) startReaders()            {}
func (s *Server) pollerUnregister(c *conn) {}

func (s *Server) pollerRegister(c *conn) error {
	c.poll.resume = make(chan struct{}, 1)
	s.wg.Add(1)
	go s.blockingReadLoop(c)
	return nil
}

// writeNB writes nothing: a short count with a nil error tells the caller
// the socket would block, which sends the batch to the writer pool.
func writeNB(c *conn, p []byte) (int, error) { return 0, nil }

func (s *Server) pollerResume(c *conn) {
	select {
	case c.poll.resume <- struct{}{}:
	default:
	}
}

// awaitFrame parks a session idle inside a transaction on the scheduler
// until its reader queues a frame or the conn closes. Called with c.mu
// held; returns with it released, reporting whether IdleTxnTimeout passed.
func (s *Server) awaitFrame(c *conn, ps *phoebedb.PoolSession) (expired bool) {
	c.waiting = true
	c.mu.Unlock()
	fired := ps.Park(c.notify, s.IdleTxnTimeout)
	c.mu.Lock()
	c.waiting = false
	c.mu.Unlock()
	return !fired
}

// takeSocket leaves the socket with the conn's read goroutine.
func (s *Server) takeSocket(c *conn) {}

// endSelfRead has nothing to hand back: the conn's read goroutine never
// stops reading.
func (s *Server) endSelfRead(c *conn) {}

func (s *Server) blockingReadLoop(c *conn) {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		c.mu.Lock()
		paused := c.paused
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if paused {
			select {
			case <-c.poll.resume:
			case <-s.done:
				return
			}
			continue
		}
		n, err := c.nc.Read(buf)
		if n > 0 {
			s.cBytesIn.Add(int64(n))
			switch _, res := s.ingest(c, buf[:n]); res {
			case ingestDead:
				return
			case ingestPaused:
				continue
			}
		}
		if err != nil {
			s.closeConn(c)
			return
		}
	}
}
