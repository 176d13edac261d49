package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrLostPosition reports that a group file restarted under a Tailer: it
// shrank below the tailing offset, or its first record's GSN changed. Only
// a checkpoint truncates the log, so the bytes between the offset and the
// truncation are gone from the live files.
var ErrLostPosition = errors.New("wal: log restarted under the tailing position")

// Tailer follows the group files of a live WAL directory. It owns file
// discovery (group g is the g-th file in name order) and one byte offset
// per group, reads past that offset in chunks up to the first record that
// does not decode, and hands out whole checksum-valid records: a torn or
// still-being-written tail, or the reserved zeros past the last record
// (see the package comment), stays unconsumed and is read again by the
// next Fetch. A file's size is not the log's length.
//
// Restart detection. A checkpoint truncates the log in place, so between
// two Fetches a file can (a) shrink below the offset or (b) shrink and
// regrow past it, by records or by reserved space, leaving the offset
// inside unrelated bytes. (a) is a size check. (b) is caught by the first
// record's GSN: a truncation is only ever followed by records above the
// checkpoint horizon, which every earlier record was at or below, and a
// head of reserved zeros reads as GSN 0, which no record carries. At
// offset 0 there is no position to lose and no check is made.
//
// Fetch takes the snapshot (every file read happens there); Scan consumes
// from it. A Tailer is not safe for concurrent use.
type Tailer struct {
	dir    string
	paths  []string
	groups []tailGroup
	sc     scanner
	read   int64 // bytes read from the log files so far
}

type tailGroup struct {
	off   int64  // file offset of the next unconsumed byte
	buf   []byte // the whole records from off, as of the last Fetch
	first uint64 // GSN of the file's first record; 0 = not known yet
}

// firstGSNEnd is the end of the GSN field in a record header.
const firstGSNEnd = 4 + 4 + 1 + 8

// NewTailer returns a Tailer over dir that resumes at the given per-group
// offsets (nil: the start of every file).
func NewTailer(dir string, offsets []uint64) *Tailer {
	t := &Tailer{dir: dir, groups: make([]tailGroup, len(offsets))}
	for g, off := range offsets {
		t.groups[g].off = int64(off)
	}
	return t
}

// Groups returns how many group files the last Fetch (or Lag) found.
func (t *Tailer) Groups() int { return len(t.paths) }

// Offsets returns every group's offset: the bytes of its file consumed.
func (t *Tailer) Offsets() []uint64 {
	out := make([]uint64, len(t.groups))
	for g := range t.groups {
		out[g] = uint64(t.groups[g].off)
	}
	return out
}

func (t *Tailer) discover() error {
	paths, err := groupFiles(t.dir)
	if err != nil {
		return err
	}
	t.paths = paths
	for len(t.groups) < len(paths) {
		t.groups = append(t.groups, tailGroup{})
	}
	return nil
}

// Fetch snapshots, for every group, the bytes past its offset. It returns
// ErrLostPosition (wrapped) when a file restarted under its offset.
func (t *Tailer) Fetch() error {
	if err := t.discover(); err != nil {
		return err
	}
	for g, p := range t.paths {
		if err := t.fetchGroup(&t.groups[g], p); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tailer) fetchGroup(tg *tailGroup, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	tg.buf = nil
	if st.Size() < tg.off {
		return fmt.Errorf("%w (%s shrank to %d below offset %d)",
			ErrLostPosition, filepath.Base(path), st.Size(), tg.off)
	}
	var buf []byte
	_, read, err := t.sc.scan(f, tg.off, func(raw []byte) bool {
		buf = append(buf, raw...)
		return true
	})
	t.read += read
	if err != nil {
		return err
	}
	if tg.off > 0 {
		// The first-record check runs after the tail read: if the file
		// restarted before the read, the header read now sees the new file.
		var hdr [firstGSNEnd]byte
		n, err := f.ReadAt(hdr[:], 0)
		t.read += int64(n)
		if err != nil && err != io.EOF {
			return err
		}
		gsn := binary.LittleEndian.Uint64(hdr[firstGSNEnd-8:])
		switch {
		case n < len(hdr):
			return fmt.Errorf("%w (%s shrank below offset %d)", ErrLostPosition, filepath.Base(path), tg.off)
		case gsn == 0:
			return fmt.Errorf("%w (%s restarted: reserved space at its head)", ErrLostPosition, filepath.Base(path))
		case tg.first == 0:
			tg.first = gsn // resumed from a persisted offset: learn it now
		case tg.first != gsn:
			return fmt.Errorf("%w (%s restarted: first GSN %d -> %d)",
				ErrLostPosition, filepath.Base(path), tg.first, gsn)
		}
	}
	tg.buf = buf
	return nil
}

// Scan walks group g's snapshot with wal.Scan, advancing the offset past
// every record fn accepts. The raw bytes handed to fn are valid until the
// next Fetch.
func (t *Tailer) Scan(g int, fn func(r Record, raw []byte) bool) {
	tg := &t.groups[g]
	atStart := tg.off == 0
	n := Scan(tg.buf, 0, func(r Record, raw []byte) bool {
		if !fn(r, raw) {
			return false
		}
		if atStart {
			tg.first, atStart = r.GSN, false
		}
		return true
	})
	tg.off += int64(n)
	tg.buf = tg.buf[n:]
}

// Seek moves group g's offset. It reports whether the snapshot still
// covers the new position; if not (the position lies before the offset or
// beyond the snapshot) the snapshot is dropped and the next Fetch reads
// from there.
func (t *Tailer) Seek(g int, off int64) bool {
	tg := &t.groups[g]
	d := off - tg.off
	tg.off = off
	if d < 0 || d > int64(len(tg.buf)) {
		tg.buf = nil
		return false
	}
	tg.buf = tg.buf[d:]
	return true
}

// Rewind returns every group to the start of its file and forgets the
// first GSNs: for the owner of the truncation once it has drained the log
// (the archiver at Seal), and for a consumer that expected the restart.
func (t *Tailer) Rewind() {
	for g := range t.groups {
		t.groups[g] = tailGroup{}
	}
}

// Lag returns how many bytes of whole records the group files hold past
// the offsets. Reserved space and a torn or still-being-written tail are
// not lag: no Fetch would hand them out.
func (t *Tailer) Lag() (int64, error) {
	if err := t.discover(); err != nil {
		return 0, err
	}
	var lag int64
	for g, p := range t.paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		off := t.groups[g].off
		end, read, err := t.sc.scan(f, off, func([]byte) bool { return true })
		f.Close()
		t.read += read
		if err != nil {
			return 0, err
		}
		lag += end - off
	}
	return lag, nil
}
