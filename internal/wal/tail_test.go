package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tailFixture is a log directory the tests append encoded records to by
// hand, so they control exactly which bytes are on disk at each Fetch. It
// writes the newest file, as the manager does.
type tailFixture struct {
	t    *testing.T
	dir  string
	path string
	gsn  uint64
}

func newTailFixture(t *testing.T) (*tailFixture, *Tailer) {
	dir := t.TempDir()
	fx := &tailFixture{t: t, dir: dir, path: filepath.Join(dir, FileName(0))}
	fx.write(nil)
	return fx, NewTailer(dir, 0, 0)
}

// record returns the next record's encoding (GSNs count up from 1).
func (fx *tailFixture) record(payload int) []byte {
	fx.gsn++
	return encodeRecord(nil, &Record{Type: RecInsert, GSN: fx.gsn, LSN: fx.gsn, Payload: make([]byte, payload)})
}

func (fx *tailFixture) write(b []byte) {
	fx.t.Helper()
	f, err := os.OpenFile(fx.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fx.t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		fx.t.Fatal(err)
	}
}

// rotate starts the file of the current GSN, as a checkpoint there does,
// and returns its horizon.
func (fx *tailFixture) rotate() uint64 {
	fx.path = filepath.Join(fx.dir, FileName(fx.gsn))
	fx.write(nil)
	return fx.gsn
}

// remove removes the file of horizon h, as a checkpoint's RemoveOld does.
func (fx *tailFixture) remove(h uint64) {
	fx.t.Helper()
	if err := os.Remove(filepath.Join(fx.dir, FileName(h))); err != nil {
		fx.t.Fatal(err)
	}
}

// poll runs one Fetch and Scans every file it read, and returns the GSNs
// consumed.
func poll(t *testing.T, tl *Tailer) ([]uint64, error) {
	t.Helper()
	if err := tl.Fetch(); err != nil {
		return nil, err
	}
	var got []uint64
	for next := true; next; {
		next = tl.Scan(func(r Record, raw []byte) bool {
			got = append(got, r.GSN)
			return true
		})
	}
	return got, nil
}

func TestTailerTornTailIsRetried(t *testing.T) {
	fx, tl := newTailFixture(t)
	whole, torn := fx.record(10), fx.record(10)
	fx.write(whole)
	fx.write(torn[:len(torn)-7])
	got, err := poll(t, tl)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("first poll = %v, %v; want [1]", got, err)
	}
	if file, off := tl.Position(); file != 0 || off != int64(len(whole)) {
		t.Fatalf("position %d/%d stopped somewhere other than the torn record's start %d", file, off, len(whole))
	}
	if got, err := poll(t, tl); err != nil || len(got) != 0 {
		t.Fatalf("poll over an unchanged torn tail = %v, %v", got, err)
	}
	fx.write(torn[len(torn)-7:])
	got, err = poll(t, tl)
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("poll after the tail completed = %v, %v; want [2]", got, err)
	}
}

// A checkpoint rotated the log and removed the old file before the tailer
// read it to its end: the records past its offset are gone.
func TestTailerShrinkBelowOffset(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...))
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	fx.write(fx.record(10)) // never read
	fx.rotate()
	fx.remove(0)
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after the file was removed returned %v, want ErrLostPosition", err)
	}
	if _, err := tl.Lag(); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("lag after the file was removed returned %v, want ErrLostPosition", err)
	}
}

// The case that once hid behind a size check: the file under the position
// is gone and the next one has grown past the offset. The tailer never
// reads the next file at the old offset; a reader told where the log now
// starts (a horizon at or past the file's name, as an archive holds) reads
// it from its start.
func TestTailerTruncateThenRegrowPastOffset(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...))
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	h := fx.rotate()
	var regrown []byte
	for i := 0; i < 5; i++ {
		regrown = append(regrown, fx.record(10)...)
	}
	fx.write(regrown)
	fx.remove(0)
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after remove+regrow returned %v, want ErrLostPosition", err)
	}
	tl.Seek(h+1, 0) // a horizon past the file's name finds it
	if got, err := poll(t, tl); err != nil || len(got) != 5 || got[0] != 3 {
		t.Fatalf("poll from the new file's start = %v, %v; want GSNs 3..7", got, err)
	}
	if file, _ := tl.Position(); file != h {
		t.Fatalf("position in file %d, want %d", file, h)
	}
}

// A tailer resumed from a persisted position (the archiver after a
// restart) reads from there, and a file removed before it finished the
// file is a lost position all the same.
func TestTailerSeededOffsetDetectsRestart(t *testing.T) {
	fx, _ := newTailFixture(t)
	first := fx.record(10)
	fx.write(append(first, fx.record(10)...))
	tl := NewTailer(fx.dir, 0, int64(len(first)))
	if got, err := poll(t, tl); err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("seeded poll = %v, %v; want [2]", got, err)
	}
	fx.rotate()
	fx.write(append(append(fx.record(10), fx.record(10)...), fx.record(10)...))
	fx.remove(0)
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after removal returned %v, want ErrLostPosition", err)
	}
}

// Bytes read per poll follow the bytes appended, not the file's size.
func TestTailerReadsOnlyAppendedBytes(t *testing.T) {
	fx, tl := newTailFixture(t)
	var big []byte
	for i := 0; i < 200; i++ {
		big = append(big, fx.record(4096)...)
	}
	fx.write(big)
	if got, err := poll(t, tl); err != nil || len(got) != 200 {
		t.Fatalf("poll = %d records, %v", len(got), err)
	}
	if tl.read != int64(len(big)) {
		t.Fatalf("first poll read %d bytes of a %d-byte file", tl.read, len(big))
	}
	for i := 0; i < 10; i++ {
		before := tl.read
		rec := fx.record(32)
		fx.write(rec)
		if got, err := poll(t, tl); err != nil || len(got) != 1 {
			t.Fatalf("poll = %v, %v", got, err)
		}
		if d := tl.read - before; d != int64(len(rec)) {
			t.Fatalf("poll read %d bytes for a %d-byte append to a %d-byte file", d, len(rec), len(big))
		}
	}
	before := tl.read
	if got, err := poll(t, tl); err != nil || len(got) != 0 || tl.read != before {
		t.Fatalf("idle poll = %v, %v, read %d bytes", got, err, tl.read-before)
	}
}

// After a seal: the tailer drained the old file, the log rotated, and the
// tailer moves to the new file's start; the old file's removal then takes
// nothing from it.
func TestTailerRewindAfterSeal(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...))
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	if lag, err := tl.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag = %d, %v", lag, err)
	}
	h := fx.rotate()
	rec := fx.record(10)
	fx.write(rec) // the next epoch's first record
	if lag, err := tl.Lag(); err != nil || lag != int64(len(rec)) {
		t.Fatalf("lag = %d, %v; want %d", lag, err, len(rec))
	}
	if got, err := poll(t, tl); err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("poll after the rotation = %v, %v; want [3]", got, err)
	}
	if file, off := tl.Position(); file != h || off != int64(len(rec)) {
		t.Fatalf("position after the rotation = %d/%d, want %d/%d", file, off, h, len(rec))
	}
	fx.remove(0)
	if got, err := poll(t, tl); err != nil || len(got) != 0 {
		t.Fatalf("poll after the old file's removal = %v, %v", got, err)
	}
}

// Seek drops the snapshot: a Scan before the next Fetch hands out nothing,
// and that Fetch reads from the new position. A refused record is not
// consumed.
func TestTailerSeek(t *testing.T) {
	fx, tl := newTailFixture(t)
	a, b, c := fx.record(10), fx.record(10), fx.record(10)
	fx.write(append(append(a, b...), c...))
	tl.Seek(0, int64(len(a)))
	if err := tl.Fetch(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	collect := func(r Record, _ []byte) bool { got = append(got, r.GSN); return r.GSN < 2 }
	tl.Scan(collect)
	if _, off := tl.Position(); len(got) != 1 || got[0] != 2 || off != int64(len(a)) {
		t.Fatalf("scan saw %v and moved to %d; a refused record must not be consumed", got, off)
	}
	tl.Seek(0, 0)
	got = nil
	tl.Scan(collect)
	if len(got) != 0 {
		t.Fatalf("scan over a dropped snapshot saw %v", got)
	}
	if all, err := poll(t, tl); err != nil || len(all) != 3 {
		t.Fatalf("poll after seeking to 0 = %v, %v", all, err)
	}
}
