package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrLostPosition reports that the log file a reader's position is in is
// gone: a checkpoint removed it before the reader read it to its end, so
// the records between the position and that end are no longer in the live
// log.
var ErrLostPosition = errors.New("wal: log file removed under the reading position")

// Tailer follows a live log directory. Its position is a file, named by
// its horizon, and an offset in it; a position given by a horizon names
// the newest file at or below it, so a position an archive manifest holds
// (SealGSN) finds the one log file of an earlier release too. Fetch reads past the offset in chunks
// up to the first record that does not decode, and Scan hands out whole
// checksum-valid records: a torn or still-being-written tail, or the
// reserved zeros past the last record (see the package comment), waits for
// the next Fetch. A file's size is not the log's length.
//
// The manager writes only the newest file and never cuts one below a whole
// record, so a file with a successor is complete: a Fetch that lists a
// later file before it reads reads the position's file to its end and goes
// on to the next. Nothing is inferred from sizes or records. A position
// whose file is gone is ErrLostPosition: files are removed oldest first,
// so none older is left either. A Tailer is not safe for concurrent use.
type Tailer struct {
	dir  string
	file uint64 // horizon of the position's file
	off  int64  // its offset of the next unconsumed byte
	// snap is what the last Fetch read: the whole records of the position's
	// file from off, then those of every later file from its start.
	snap []tailFile
	sc   scanner
	read int64 // bytes read from the log files so far
}

type tailFile struct {
	h   uint64
	buf []byte
}

// NewTailer returns a Tailer over dir that resumes at byte off of the log
// file of horizon file.
func NewTailer(dir string, file uint64, off int64) *Tailer {
	return &Tailer{dir: dir, file: file, off: off}
}

// Position returns the position: the horizon of its file and the bytes of
// that file consumed.
func (t *Tailer) Position() (file uint64, off int64) { return t.file, t.off }

// Seek moves the position and drops the snapshot: the next Fetch reads
// from there.
func (t *Tailer) Seek(file uint64, off int64) {
	t.file, t.off, t.snap = file, off, nil
}

// files returns the position's file and every later one, oldest first.
func (t *Tailer) files() ([]logFile, error) {
	files, err := logFiles(t.dir)
	if err != nil {
		return nil, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if files[i].h <= t.file {
			t.file = files[i].h
			return files[i:], nil
		}
	}
	return nil, fmt.Errorf("%w (%s at offset %d)", ErrLostPosition, FileName(t.file), t.off)
}

// scanFile hands fn the whole records of lf from byte off, as scanner.scan
// does, and returns where they end.
func (t *Tailer) scanFile(lf logFile, off int64, fn func(raw []byte) bool) (int64, error) {
	f, err := os.Open(lf.path)
	if os.IsNotExist(err) {
		return 0, fmt.Errorf("%w (%s)", ErrLostPosition, filepath.Base(lf.path))
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	end, read, err := t.sc.scan(f, off, fn)
	t.read += read
	return end, err
}

// Fetch snapshots the whole records past the position, in its file and in
// every later one. It returns ErrLostPosition (wrapped) when a file it
// must read is gone.
func (t *Tailer) Fetch() error {
	t.snap = nil
	files, err := t.files()
	if err != nil {
		return err
	}
	off := t.off
	for _, lf := range files {
		var buf []byte
		if _, err := t.scanFile(lf, off, func(raw []byte) bool {
			buf = append(buf, raw...)
			return true
		}); err != nil {
			t.snap = nil
			return err
		}
		t.snap = append(t.snap, tailFile{h: lf.h, buf: buf})
		off = 0
	}
	return nil
}

// Scan walks the snapshot of the position's file with wal.Scan, advancing
// the offset past every record fn accepts. When fn took every record and
// the snapshot holds a later file, the position moves to that file's start
// and Scan returns true: the caller calls it again for that file's
// records. The raw bytes handed to fn are valid until the next Fetch.
func (t *Tailer) Scan(fn func(r Record, raw []byte) bool) (next bool) {
	if len(t.snap) == 0 {
		return false
	}
	cur := &t.snap[0]
	n := Scan(cur.buf, 0, fn)
	t.off += int64(n)
	cur.buf = cur.buf[n:]
	if len(cur.buf) > 0 || len(t.snap) == 1 {
		return false
	}
	t.snap = t.snap[1:]
	t.file, t.off = t.snap[0].h, 0
	return true
}

// Lag returns how many bytes of whole records the log holds past the
// position, in its file and every later one. Reserved space and a torn or
// still-being-written tail are not lag: no Fetch would hand them out.
func (t *Tailer) Lag() (int64, error) {
	files, err := t.files()
	if err != nil {
		return 0, err
	}
	var lag int64
	off := t.off
	for _, lf := range files {
		end, err := t.scanFile(lf, off, func([]byte) bool { return true })
		if err != nil {
			return 0, err
		}
		lag += end - off
		off = 0
	}
	return lag, nil
}
