//go:build !linux

package wire

// Portable fallback read path: one blocking-read goroutine per
// connection. Functionally identical to the Linux epoll multiplexer
// (same framing, admission, and backpressure), but idle connections
// cost a parked goroutine each — O(connections) instead of O(pool).
// The connmux benchmark gate runs on Linux, where the epoll path is
// compiled in. There is no portable non-blocking write either, so every
// flush is handed to the writer pool.

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
			switch s.ingest(c, buf[:n]) {
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
