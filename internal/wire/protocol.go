// Package wire is PhoebeDB's production front end: a framed, pipelined
// wire protocol served by a connection multiplexer that maps many client
// connections onto the kernel's co-routine slot pool, with admission
// control so overload degrades into structured rejections instead of
// collapse (DESIGN.md §4.14).
//
// # Frame format
//
// Every message in either direction is one frame:
//
//	uint32  length   big-endian; bytes following this field (>= 4)
//	byte    type     see the frame-type constants
//	byte    flags    0; reserved
//	uint16  tenant   big-endian; reserved for per-tenant namespaces, 0
//	...     body     length-4 bytes, layout per type
//
// Client frames: Hello (uint16 protocol version), Query (SQL text),
// Begin (1 isolation byte: 0 default / 1 read committed / 2 repeatable
// read), Commit, Rollback, Quit. Server frames: OK (uvarint affected
// rows), Error (uvarint code length, code, message), Rows (uvarint
// column count, columns as uvarint-length strings, uvarint row count,
// rows of kind-tagged values).
//
// # Pipelining
//
// A client may send any number of frames before reading responses; the
// server answers every request frame with exactly one response frame, in
// order. Errors — including statement errors mid-pipeline and oversized
// frames — consume their request and produce their response like any
// other statement, so the stream never desynchronizes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"phoebedb/internal/rel"
)

// Protocol constants.
const (
	// ProtocolVersion is the version the Hello frame must carry.
	ProtocolVersion = 1

	// headerLen is the fixed part after the length field: type, flags,
	// tenant.
	headerLen = 4

	// MaxFrame bounds a frame's length field (statement/result budget).
	// Larger client frames are consumed and answered with ErrCodeTooLarge
	// without killing the session.
	MaxFrame = 1 << 20
)

// Client→server frame types.
const (
	FrameHello    = 'h'
	FrameQuery    = 'Q'
	FrameBegin    = 'B'
	FrameCommit   = 'C'
	FrameRollback = 'R'
	FrameQuit     = 'X'
)

// Server→client frame types.
const (
	FrameOK    = 'K'
	FrameError = 'E'
	FrameRows  = 'D'
)

// Value kind tags inside a Rows frame.
const (
	KindInt    = 1
	KindFloat  = 2
	KindString = 3
)

// Structured error codes carried by Error frames.
const (
	// ErrCodeSQL is a statement parse/plan/execution error.
	ErrCodeSQL = "SQL"
	// ErrCodeTxn is a transaction-state error (BEGIN inside a
	// transaction, COMMIT without one, statement in an aborted
	// transaction).
	ErrCodeTxn = "TXN"
	// ErrCodeTooLarge reports a frame or result set over MaxFrame.
	ErrCodeTooLarge = "TOO_LARGE"
	// ErrCodeOverloaded reports admission-control rejection: the global
	// inflight limit and its queue are both full.
	ErrCodeOverloaded = "OVERLOADED"
	// ErrCodeTooManyConns reports the connection cap at accept time.
	ErrCodeTooManyConns = "TOO_MANY_CONNECTIONS"
	// ErrCodeProtocol is a malformed or out-of-order frame.
	ErrCodeProtocol = "PROTOCOL"
	// ErrCodeShutdown reports the server is stopping.
	ErrCodeShutdown = "SHUTDOWN"
)

// appendHeader appends the length field and fixed header of a frame whose
// body is n bytes long.
func appendHeader(dst []byte, typ byte, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+n))
	return append(dst, typ, 0, 0, 0) // type, flags, tenant (reserved)
}

// AppendFrame appends a complete frame (length, header, body) to dst.
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	return append(appendHeader(dst, typ, len(body)), body...)
}

// AppendOK appends an OK frame carrying the affected-row count.
func AppendOK(dst []byte, affected int) []byte {
	var body [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(body[:], uint64(affected))
	return AppendFrame(dst, FrameOK, body[:n])
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendError appends an Error frame with a structured code and message.
func AppendError(dst []byte, code, msg string) []byte {
	dst = appendHeader(dst, FrameError, uvarintLen(uint64(len(code)))+len(code)+len(msg))
	dst = binary.AppendUvarint(dst, uint64(len(code)))
	dst = append(dst, code...)
	return append(dst, msg...)
}

// A rowsEncoder streams one Rows frame into a buffer, row by row, without
// knowing the row count in advance: Begin, Header, Row per row, End. It is
// the executor's second row sink (sql.RowSink) — rows are encoded straight
// from the scan's borrowed row, nothing is kept. The frame's length field
// and row count are patched in by End, and a result that would exceed
// MaxFrame is cut off there, so the buffer only ever gains a whole frame or
// nothing.
type rowsEncoder struct {
	buf   []byte
	start int // offset of the frame's length field
	count int // offset of the row count (one byte reserved)
	rows  int
	// open is set between Begin and End; header once Header has run — a
	// statement that never called it was not a SELECT.
	open, header bool
	tooLarge     bool
}

// Begin starts a frame at the end of buf.
func (e *rowsEncoder) Begin(buf []byte) {
	*e = rowsEncoder{buf: buf, start: len(buf), open: true}
}

// Header implements sql.RowSink: the frame header and the column names.
func (e *rowsEncoder) Header(cols []string) {
	e.header = true
	e.buf = appendHeader(e.buf, FrameRows, 0)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(cols)))
	for _, c := range cols {
		e.buf = binary.AppendUvarint(e.buf, uint64(len(c)))
		e.buf = append(e.buf, c...)
	}
	e.count = len(e.buf)
	e.buf = append(e.buf, 0)
}

// bodyLen is the frame body's final size if no further row follows.
func (e *rowsEncoder) bodyLen() int {
	return len(e.buf) - (e.start + 4 + headerLen) + uvarintLen(uint64(e.rows)) - 1
}

// Row implements sql.RowSink: one row of kind-tagged values. It returns
// false — stop producing — once the frame is over MaxFrame.
func (e *rowsEncoder) Row(row rel.Row) bool {
	if e.tooLarge {
		return false
	}
	for _, v := range row {
		switch v.Kind {
		case rel.TInt64:
			e.buf = append(e.buf, KindInt)
			e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v.I))
		case rel.TFloat64:
			e.buf = append(e.buf, KindFloat)
			e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v.F))
		default:
			e.buf = append(e.buf, KindString)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(v.S)))
			e.buf = append(e.buf, v.S...)
		}
	}
	e.rows++
	if headerLen+e.bodyLen() > MaxFrame {
		e.tooLarge = true
		e.buf = e.buf[:e.count+1] // nothing of it will be sent
		return false
	}
	return true
}

// End finishes the frame and returns the buffer. rows reports whether a
// Rows frame was written: false with ok set means Header never ran (the
// caller answers with an OK frame instead); ok false means the result
// exceeded MaxFrame (the caller substitutes an ErrCodeTooLarge error). In
// both cases, and after Abort, the buffer is back where Begin found it.
func (e *rowsEncoder) End() (buf []byte, rows, ok bool) {
	e.open = false
	if !e.header || e.tooLarge {
		return e.buf[:e.start], false, !e.tooLarge
	}
	if extra := uvarintLen(uint64(e.rows)) - 1; extra > 0 {
		// The count outgrew its reserved byte: move the rows up.
		var pad [binary.MaxVarintLen64]byte
		n := len(e.buf)
		e.buf = append(e.buf, pad[:extra]...)
		copy(e.buf[e.count+1+extra:], e.buf[e.count+1:n])
	}
	binary.PutUvarint(e.buf[e.count:], uint64(e.rows))
	binary.BigEndian.PutUint32(e.buf[e.start:], uint32(len(e.buf)-e.start-4))
	return e.buf, true, true
}

// Abort drops whatever the frame holds so far (the statement failed) and
// returns the buffer as Begin found it.
func (e *rowsEncoder) Abort() []byte {
	e.open = false
	return e.buf[:e.start]
}

// AppendRows appends a Rows frame for a result set. It fails (with a
// nil append) when the encoding would exceed MaxFrame; the caller
// substitutes an ErrCodeTooLarge error so framing stays intact.
func AppendRows(dst []byte, cols []string, rows []rel.Row) ([]byte, bool) {
	var e rowsEncoder
	e.Begin(dst)
	e.Header(cols)
	for _, row := range rows {
		if !e.Row(row) {
			break
		}
	}
	buf, _, ok := e.End()
	return buf, ok
}

// Frame is one decoded frame header plus its body bytes.
type Frame struct {
	Type   byte
	Flags  byte
	Tenant uint16
	Body   []byte
}

// ParseFrame decodes the first complete frame in buf. It returns the
// frame, the bytes consumed (0 when buf does not yet hold a complete
// frame), and an error for unrecoverable framing problems (length below
// the fixed header). Oversized frames are the caller's business: it sees
// the declared length via PeekLength before calling.
func ParseFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, nil
	}
	ln := int(binary.BigEndian.Uint32(buf))
	if ln < headerLen {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d below header", ln)
	}
	if len(buf) < 4+ln {
		return Frame{}, 0, nil
	}
	f := Frame{
		Type:   buf[4],
		Flags:  buf[5],
		Tenant: binary.BigEndian.Uint16(buf[6:8]),
		Body:   buf[8 : 4+ln],
	}
	return f, 4 + ln, nil
}

// PeekLength returns the declared length of the frame starting at buf
// (ok=false with fewer than 4 bytes buffered).
func PeekLength(buf []byte) (int, bool) {
	if len(buf) < 4 {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(buf)), true
}

// DecodeError splits an Error frame body into code and message.
func DecodeError(body []byte) (code, msg string, err error) {
	n, used := binary.Uvarint(body)
	if used <= 0 || int(n) > len(body)-used {
		return "", "", fmt.Errorf("wire: malformed error frame")
	}
	return string(body[used : used+int(n)]), string(body[used+int(n):]), nil
}

// DecodeOK returns the affected-row count from an OK frame body.
func DecodeOK(body []byte) (int, error) {
	n, used := binary.Uvarint(body)
	if used <= 0 {
		return 0, fmt.Errorf("wire: malformed OK frame")
	}
	return int(n), nil
}

// DecodeRows decodes a Rows frame body into column names and rows.
func DecodeRows(body []byte) ([]string, []rel.Row, error) {
	bad := func() ([]string, []rel.Row, error) {
		return nil, nil, fmt.Errorf("wire: malformed rows frame")
	}
	ncols, used := binary.Uvarint(body)
	if used <= 0 || ncols > uint64(len(body)) {
		return bad()
	}
	body = body[used:]
	cols := make([]string, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		ln, u := binary.Uvarint(body)
		if u <= 0 || int(ln) > len(body)-u {
			return bad()
		}
		cols = append(cols, string(body[u:u+int(ln)]))
		body = body[u+int(ln):]
	}
	nrows, used := binary.Uvarint(body)
	if used <= 0 {
		return bad()
	}
	body = body[used:]
	rows := make([]rel.Row, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		row := make(rel.Row, 0, ncols)
		for j := uint64(0); j < ncols; j++ {
			if len(body) < 1 {
				return bad()
			}
			kind := body[0]
			body = body[1:]
			switch kind {
			case KindInt:
				if len(body) < 8 {
					return bad()
				}
				row = append(row, rel.Int(int64(binary.BigEndian.Uint64(body))))
				body = body[8:]
			case KindFloat:
				if len(body) < 8 {
					return bad()
				}
				row = append(row, rel.Float(math.Float64frombits(binary.BigEndian.Uint64(body))))
				body = body[8:]
			case KindString:
				ln, u := binary.Uvarint(body)
				if u <= 0 || int(ln) > len(body)-u {
					return bad()
				}
				row = append(row, rel.Str(string(body[u:u+int(ln)])))
				body = body[u+int(ln):]
			default:
				return bad()
			}
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}

// AppendHello appends the client's Hello frame.
func AppendHello(dst []byte) []byte {
	var body [2]byte
	binary.BigEndian.PutUint16(body[:], ProtocolVersion)
	return AppendFrame(dst, FrameHello, body[:])
}

// AppendQuery appends a Query frame.
func AppendQuery(dst []byte, sql string) []byte {
	return append(appendHeader(dst, FrameQuery, len(sql)), sql...)
}

// AppendBegin appends a Begin frame; iso is the isolation byte.
func AppendBegin(dst []byte, iso byte) []byte {
	return AppendFrame(dst, FrameBegin, []byte{iso})
}
