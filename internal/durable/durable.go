// Package durable is the one place that knows how PhoebeDB's metadata
// files are framed and how a file is put on disk to survive a power loss.
//
// The frame, shared by the archive MANIFEST (PBM1), backup_label (PBL1),
// the cold manifest (PCM1) and the checkpoint image (PCK1):
//
//	magic u32 | version u32 | body | crc32-IEEE of every preceding byte
//
// Integers are little-endian; a byte string is a u32 length and the bytes.
// The body's fields belong to the package that owns the file.
//
// The replace protocol (ReplaceFile): create <path>.tmp, stream the
// content, fsync the file, close it, rename it over path, fsync the parent
// directory. A rename is not durable until the directory is fsynced, so
// nothing that depends on the new file — the WAL's rotation, manifest garbage
// collection, the label that declares a backup complete — may run before
// ReplaceFile returns nil. Every step's error is returned.
package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"phoebedb/internal/fault"
)

// file is what the protocols need from an open file or directory.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// fsys is the seam every file operation goes through, so this package's
// tests (and nothing else) can record the order of operations and fail any
// one of them.
var fsys = struct {
	create, openDir func(path string) (file, error)
	rename          func(from, to string) error
	remove          func(path string) error
}{
	create:  func(path string) (file, error) { return os.Create(path) },
	openDir: func(path string) (file, error) { return os.Open(path) },
	rename:  os.Rename,
	remove:  os.Remove,
}

// Writer streams fields to a destination, keeping the running checksum and
// byte count so that a large image (a checkpoint) is never held in memory.
// The first write error sticks: later writes are dropped and return it.
type Writer struct {
	w   io.Writer
	crc uint32
	n   int64
	err error
	tmp [8]byte
}

// Write appends raw bytes (io.Writer, for content that is not framed).
func (w *Writer) Write(b []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	w.n += int64(len(b))
	_, w.err = w.w.Write(b)
	return len(b), w.err
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Write(append(w.tmp[:0], v)) }

// Bool appends 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.Write(binary.LittleEndian.AppendUint32(w.tmp[:0], v)) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.Write(binary.LittleEndian.AppendUint64(w.tmp[:0], v)) }

// Bytes appends a u32 length and the bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Write(b)
}

// Header opens a frame.
func (w *Writer) Header(magic, version uint32) {
	w.U32(magic)
	w.U32(version)
}

// Trailer closes a frame with the checksum of every byte written so far.
func (w *Writer) Trailer() { w.U32(w.crc) }

// Encode renders one frame in memory: header, what body writes, trailer.
func Encode(magic, version uint32, body func(*Writer)) []byte {
	var buf bytes.Buffer // its Write cannot fail
	w := &Writer{w: &buf}
	w.Header(magic, version)
	body(w)
	w.Trailer()
	return buf.Bytes()
}

// Reader consumes the body of a frame. The first short read sticks: later
// calls return zero values and Err and Done report it.
type Reader struct {
	buf  []byte
	off  int
	what string
	err  error
}

// Open verifies data's checksum trailer, magic and version and returns a
// Reader positioned at the first body byte. what names the file in errors
// ("backup: manifest").
func Open(data []byte, what string, magic, version uint32) (*Reader, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%s too short", what)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%s checksum mismatch", what)
	}
	r := &Reader{buf: body, what: what}
	if r.U32() != magic {
		return nil, fmt.Errorf("%s has a bad magic", what)
	}
	if v := r.U32(); v != version {
		return nil, fmt.Errorf("%s has unsupported version %d", what, v)
	}
	return r, nil
}

// fail marks the input malformed (for a field value the caller rejects).
func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%s truncated or malformed", r.what)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail()
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes reads a u32 length and that many bytes. The result aliases the
// input.
func (r *Reader) Bytes() []byte { return r.take(int(r.U32())) }

// Count reads a u32 element count and bounds it by the bytes remaining at
// elemSize (the element's smallest encoding) each, so a corrupted count
// cannot drive a huge allocation.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.off)/elemSize) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Err returns the sticky error.
func (r *Reader) Err() error { return r.err }

// Done returns the sticky error, or an error if body bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%s has %d trailing bytes", r.what, len(r.buf)-r.off)
	}
	return r.err
}

// Bytes is the write callback for content already in memory.
func Bytes(data []byte) func(*Writer) error {
	return func(w *Writer) error { _, err := w.Write(data); return err }
}

// writeSynced creates path, streams write into it, fsyncs and closes it,
// and returns the bytes streamed.
func writeSynced(path string, write func(*Writer) error) (int64, error) {
	f, err := fsys.create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	w := &Writer{w: bw}
	err = write(w)
	if err == nil {
		err = w.err // a stream that ignored a failed write still fails
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return w.n, err
}

// ReplaceFile atomically and durably replaces path with what write
// streams, by the replace protocol in the package comment, and returns the
// bytes streamed. site is the caller's failpoint between "new content
// durable in the temp file" and the rename ("" for none). If anything up to
// the rename fails, path keeps its old content and the temp file is removed.
func ReplaceFile(path, site string, write func(*Writer) error) (int64, error) {
	tmp := path + ".tmp"
	n, err := writeSynced(tmp, write)
	if err == nil {
		err = fault.Eval(site)
	}
	if err == nil {
		err = fsys.rename(tmp, path)
	}
	if err != nil {
		fsys.remove(tmp) // best effort: the error being returned matters more
	} else {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		return n, fmt.Errorf("durable: replace %s: %w", filepath.Base(path), err)
	}
	return n, nil
}

// WriteFile creates path with data, fsyncs it and fsyncs its directory. It
// is not atomic: it is for copies into a directory nothing reads until a
// later step (a backup's label, Restore returning) declares it complete.
func WriteFile(path string, data []byte) error {
	_, err := writeSynced(path, Bytes(data))
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// SyncDir makes the directory's entries (a create, a rename, a mkdir)
// durable.
func SyncDir(dir string) error {
	d, err := fsys.openDir(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
