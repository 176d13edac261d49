// Package client is the Go driver for a standalone PhoebeDB server
// (cmd/phoebeserver): it speaks the framed wire protocol of
// internal/wire, including pipelining and session transactions.
//
// Synchronous use:
//
//	c, _ := client.Dial("localhost:5440")
//	defer c.Close()
//	c.Exec("CREATE TABLE t (id INT, v STRING)")
//	res, _ := c.Exec("SELECT * FROM t WHERE id = 1")
//	fmt.Println(res.Rows)
//
// Pipelined use — enqueue many statements before reading any response;
// the server executes them in order and responses come back in order:
//
//	for i := 0; i < 100; i++ {
//		c.Send(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i))
//	}
//	c.Flush()
//	for i := 0; i < 100; i++ {
//		res, err := c.Recv()
//		...
//	}
package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"

	"phoebedb/internal/wire"
)

// Result is one statement's outcome.
type Result struct {
	// Columns and Rows are set for SELECT (rows as decoded strings).
	Columns []string
	Rows    [][]string
	// Affected is set for writes and DDL.
	Affected int
}

// ServerError is a structured error returned by the server (as opposed
// to a transport failure). Code is one of the wire.ErrCode* values, e.g.
// "SQL" for statement errors, "OVERLOADED" for admission-control
// rejection.
type ServerError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *ServerError) Error() string { return fmt.Sprintf("client: server [%s]: %s", e.Code, e.Msg) }

// Conn is one client connection (= one server session). Not safe for
// concurrent use; open one per goroutine.
type Conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
	// outstanding counts pipelined requests sent but not yet Recv'd.
	outstanding int
	hdr         [4]byte
	// scratch is the request-frame encoding buffer and frame the response
	// frame read buffer, both reused: a Result never aliases frame.
	scratch []byte
	frame   []byte
	// colsRaw and cols remember the last Rows frame's encoded column list
	// and its decoded names: a connection repeats a few statement shapes, so
	// the names are decoded once per run of equal results, not per result.
	colsRaw []byte
	cols    []string
	// text and ends are decodeRows' working buffers.
	text []byte
	ends []int
}

// Dial connects to a PhoebeDB server and performs the protocol
// handshake.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a bound on connection establishment.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Conn{
		c: nc,
		r: bufio.NewReaderSize(nc, 64*1024),
		w: bufio.NewWriterSize(nc, 64*1024),
	}
	c.w.Write(wire.AppendHello(nil))
	if err := c.w.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if _, err := c.recvFrame(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	return c, nil
}

// Close sends Quit (best effort) and closes the connection. Any open
// transaction is rolled back by the server.
func (c *Conn) Close() error {
	c.w.Write(wire.AppendFrame(nil, wire.FrameQuit, nil))
	c.w.Flush()
	return c.c.Close()
}

// Send enqueues one SQL statement without waiting for its response.
// Call Flush to push buffered frames to the server and Recv once per
// Send, in order, to collect results.
func (c *Conn) Send(query string) error {
	c.outstanding++
	c.scratch = wire.AppendQuery(c.scratch[:0], query)
	_, err := c.w.Write(c.scratch)
	return err
}

// Flush pushes all buffered frames to the server.
func (c *Conn) Flush() error { return c.w.Flush() }

// Recv reads the next pipelined response. It must be called exactly
// once per Send/sendCtl, in order.
func (c *Conn) Recv() (Result, error) {
	if c.outstanding == 0 {
		return Result{}, fmt.Errorf("client: Recv without outstanding Send")
	}
	c.outstanding--
	return c.recvFrame()
}

// Outstanding reports how many pipelined responses have not been
// received yet.
func (c *Conn) Outstanding() int { return c.outstanding }

// Exec sends one SQL statement and waits for its result. Any previously
// Sent statements are flushed and their responses must still be Recv'd
// first — mixing Exec into an open pipeline is an error.
func (c *Conn) Exec(query string) (Result, error) {
	if c.outstanding != 0 {
		return Result{}, fmt.Errorf("client: Exec with %d pipelined responses pending; Recv them first", c.outstanding)
	}
	if err := c.Send(query); err != nil {
		return Result{}, err
	}
	if err := c.Flush(); err != nil {
		return Result{}, err
	}
	return c.Recv()
}

// Begin opens an explicit transaction at the server's default isolation
// level. The transaction spans subsequent statements on this connection
// until Commit or Rollback; on disconnect the server rolls it back.
func (c *Conn) Begin() error { return c.beginIso(0) }

// BeginReadCommitted / BeginRepeatableRead open a transaction at an
// explicit isolation level.
func (c *Conn) BeginReadCommitted() error  { return c.beginIso(1) }
func (c *Conn) BeginRepeatableRead() error { return c.beginIso(2) }

func (c *Conn) beginIso(iso byte) error {
	return c.ctlRoundTrip(wire.AppendBegin(c.scratch[:0], iso))
}

// Commit commits the open transaction.
func (c *Conn) Commit() error {
	return c.ctlRoundTrip(wire.AppendFrame(c.scratch[:0], wire.FrameCommit, nil))
}

// Rollback aborts the open transaction (a no-op without one).
func (c *Conn) Rollback() error {
	return c.ctlRoundTrip(wire.AppendFrame(c.scratch[:0], wire.FrameRollback, nil))
}

func (c *Conn) ctlRoundTrip(frame []byte) error {
	c.scratch = frame
	if c.outstanding != 0 {
		return fmt.Errorf("client: transaction control with %d pipelined responses pending; Recv them first", c.outstanding)
	}
	if _, err := c.w.Write(frame); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	_, err := c.recvFrame()
	return err
}

// maxKeptFrame bounds the read buffer a connection keeps between
// responses; a larger result gets a buffer of its own.
const maxKeptFrame = 64 << 10

// recvFrame reads one server frame and decodes it into a Result.
func (c *Conn) recvFrame() (Result, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return Result{}, fmt.Errorf("client: read frame: %w", err)
	}
	ln := int(binary.BigEndian.Uint32(c.hdr[:]))
	if ln < 4 || ln > wire.MaxFrame {
		return Result{}, fmt.Errorf("client: bad frame length %d", ln)
	}
	var buf []byte
	switch {
	case ln > maxKeptFrame:
		buf = make([]byte, ln)
	case ln > cap(c.frame):
		c.frame = make([]byte, ln, max(ln, 512))
		buf = c.frame
	default:
		buf = c.frame[:ln]
	}
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return Result{}, fmt.Errorf("client: read frame: %w", err)
	}
	typ, body := buf[0], buf[4:]
	switch typ {
	case wire.FrameOK:
		n, err := wire.DecodeOK(body)
		if err != nil {
			return Result{}, err
		}
		return Result{Affected: n}, nil
	case wire.FrameError:
		code, msg, err := wire.DecodeError(body)
		if err != nil {
			return Result{}, err
		}
		return Result{}, &ServerError{Code: code, Msg: msg}
	case wire.FrameRows:
		return c.decodeRows(body)
	default:
		return Result{}, fmt.Errorf("client: unexpected frame type %q", typ)
	}
}

// decodeRows decodes a Rows frame body straight into the Result's strings.
// A result costs four allocations whatever its size: the column list, the
// row list, one []string cut into the rows, and one string holding every
// value's text, which the values are substrings of.
func (c *Conn) decodeRows(body []byte) (Result, error) {
	bad := func() (Result, error) {
		return Result{}, fmt.Errorf("client: malformed rows frame")
	}
	ncols, used := binary.Uvarint(body)
	if used <= 0 || ncols > uint64(len(body)) {
		return bad()
	}
	rest := body[used:]
	for i := uint64(0); i < ncols; i++ {
		ln, u := binary.Uvarint(rest)
		if u <= 0 || ln > uint64(len(rest)-u) {
			return bad()
		}
		rest = rest[u+int(ln):]
	}
	if raw := body[used : len(body)-len(rest)]; !bytes.Equal(raw, c.colsRaw) || len(c.cols) != int(ncols) {
		c.colsRaw = append(c.colsRaw[:0], raw...)
		c.cols = make([]string, 0, ncols)
		for len(raw) > 0 {
			ln, u := binary.Uvarint(raw)
			c.cols = append(c.cols, string(raw[u:u+int(ln)]))
			raw = raw[u+int(ln):]
		}
	}
	nrows, used := binary.Uvarint(rest)
	if used <= 0 || nrows > uint64(len(rest)) {
		return bad()
	}
	rest = rest[used:]

	// First pass: render every value's text into one buffer, noting where
	// each ends; second pass: cut the one string made of it into values.
	if nrows*ncols > uint64(len(rest)) {
		return bad() // every value takes at least one byte
	}
	text, ends := c.text[:0], c.ends[:0]
	for i := uint64(0); i < nrows*ncols; i++ {
		if len(rest) < 1 {
			return bad()
		}
		kind := rest[0]
		rest = rest[1:]
		switch kind {
		case wire.KindInt, wire.KindFloat:
			if len(rest) < 8 {
				return bad()
			}
			bits := binary.BigEndian.Uint64(rest)
			if kind == wire.KindInt {
				text = strconv.AppendInt(text, int64(bits), 10)
			} else {
				text = strconv.AppendFloat(text, math.Float64frombits(bits), 'g', -1, 64)
			}
			rest = rest[8:]
		case wire.KindString:
			ln, u := binary.Uvarint(rest)
			if u <= 0 || ln > uint64(len(rest)-u) {
				return bad()
			}
			text = append(text, rest[u:u+int(ln)]...)
			rest = rest[u+int(ln):]
		default:
			return bad()
		}
		ends = append(ends, len(text))
	}
	if cap(text) <= maxKeptFrame && cap(ends) <= maxKeptFrame/8 {
		c.text, c.ends = text, ends
	}
	all := string(text)
	vals := make([]string, len(ends))
	off := 0
	for i, end := range ends {
		vals[i] = all[off:end]
		off = end
	}
	res := Result{Columns: append([]string(nil), c.cols...), Rows: make([][]string, nrows)}
	for i := range res.Rows {
		res.Rows[i] = vals[i*int(ncols) : (i+1)*int(ncols) : (i+1)*int(ncols)]
	}
	return res, nil
}
