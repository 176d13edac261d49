package wire

// SocketWrites exposes the count of write calls the server has issued on
// client sockets, so tests can compare it with the number of responses.
func (s *Server) SocketWrites() int64 { return s.cWrites.Load() }
