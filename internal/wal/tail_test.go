package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tailFixture is a one-group log file the tests append encoded records to
// by hand, so they control exactly which bytes are on disk at each Fetch.
type tailFixture struct {
	t    *testing.T
	path string
	gsn  uint64
}

func newTailFixture(t *testing.T) (*tailFixture, *Tailer) {
	dir := t.TempDir()
	fx := &tailFixture{t: t, path: filepath.Join(dir, GroupFileName(0))}
	fx.write(nil, true)
	return fx, NewTailer(dir, nil)
}

// record returns the next record's encoding (GSNs count up from 1).
func (fx *tailFixture) record(payload int) []byte {
	fx.gsn++
	return encodeRecord(nil, &Record{Type: RecInsert, GSN: fx.gsn, LSN: fx.gsn, Payload: make([]byte, payload)})
}

func (fx *tailFixture) write(b []byte, truncate bool) {
	fx.t.Helper()
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(fx.path, flags, 0o644)
	if err != nil {
		fx.t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		fx.t.Fatal(err)
	}
}

// poll runs one Fetch+Scan round and returns the GSNs consumed.
func poll(t *testing.T, tl *Tailer) ([]uint64, error) {
	t.Helper()
	if err := tl.Fetch(); err != nil {
		return nil, err
	}
	var got []uint64
	for g := 0; g < tl.Groups(); g++ {
		tl.Scan(g, func(r Record, raw []byte) bool {
			got = append(got, r.GSN)
			return true
		})
	}
	return got, nil
}

func TestTailerTornTailIsRetried(t *testing.T) {
	fx, tl := newTailFixture(t)
	whole, torn := fx.record(10), fx.record(10)
	fx.write(whole, false)
	fx.write(torn[:len(torn)-7], false)
	got, err := poll(t, tl)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("first poll = %v, %v; want [1]", got, err)
	}
	if off := tl.Offsets(); len(off) != 1 || off[0] != uint64(len(whole)) {
		t.Fatalf("offset %v stopped somewhere other than the torn record's start %d", off, len(whole))
	}
	if got, err := poll(t, tl); err != nil || len(got) != 0 {
		t.Fatalf("poll over an unchanged torn tail = %v, %v", got, err)
	}
	fx.write(torn[len(torn)-7:], false)
	got, err = poll(t, tl)
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("poll after the tail completed = %v, %v; want [2]", got, err)
	}
}

func TestTailerShrinkBelowOffset(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...), false)
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	fx.write(nil, true) // checkpoint truncation
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after shrink returned %v, want ErrLostPosition", err)
	}
}

// The insidious case: between two polls the file is truncated and regrows
// PAST the offset, so the size check passes while the offset points into
// unrelated bytes.
func TestTailerTruncateThenRegrowPastOffset(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...), false)
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	var regrown []byte
	for i := 0; i < 5; i++ {
		regrown = append(regrown, fx.record(10)...)
	}
	fx.write(regrown, true)
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after truncate+regrow returned %v, want ErrLostPosition", err)
	}
	// A consumer that expected the restart rewinds and reads the new file
	// from its head.
	tl.Rewind()
	if got, err := poll(t, tl); err != nil || len(got) != 5 || got[0] != 3 {
		t.Fatalf("poll after Rewind = %v, %v; want GSNs 3..7", got, err)
	}
}

// A tailer resumed from persisted offsets (the archiver after a restart)
// has never seen the file's head; it learns the first GSN on its first
// Fetch and detects a later restart all the same.
func TestTailerSeededOffsetDetectsRestart(t *testing.T) {
	fx, _ := newTailFixture(t)
	first := fx.record(10)
	fx.write(append(first, fx.record(10)...), false)
	tl := NewTailer(filepath.Dir(fx.path), []uint64{uint64(len(first))})
	if got, err := poll(t, tl); err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("seeded poll = %v, %v; want [2]", got, err)
	}
	fx.write(append(append(fx.record(10), fx.record(10)...), fx.record(10)...), true)
	if _, err := poll(t, tl); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("poll after restart returned %v, want ErrLostPosition", err)
	}
}

// Bytes read per poll follow the bytes appended, not the file's size.
func TestTailerReadsOnlyAppendedBytes(t *testing.T) {
	fx, tl := newTailFixture(t)
	var big []byte
	for i := 0; i < 200; i++ {
		big = append(big, fx.record(4096)...)
	}
	fx.write(big, false)
	if got, err := poll(t, tl); err != nil || len(got) != 200 {
		t.Fatalf("poll = %d records, %v", len(got), err)
	}
	if tl.read != int64(len(big)) {
		t.Fatalf("first poll read %d bytes of a %d-byte file", tl.read, len(big))
	}
	for i := 0; i < 10; i++ {
		before := tl.read
		rec := fx.record(32)
		fx.write(rec, false)
		if got, err := poll(t, tl); err != nil || len(got) != 1 {
			t.Fatalf("poll = %v, %v", got, err)
		}
		// The appended record plus the first record's header (restart check).
		if d := tl.read - before; d != int64(len(rec)+firstGSNEnd) {
			t.Fatalf("poll read %d bytes for a %d-byte append to a %d-byte file", d, len(rec), len(big))
		}
	}
	before := tl.read
	if got, err := poll(t, tl); err != nil || len(got) != 0 || tl.read-before != firstGSNEnd {
		t.Fatalf("idle poll = %v, %v, read %d bytes", got, err, tl.read-before)
	}
}

// Rewind after a seal: the owner of the truncation drained the file, so
// the restart is not a lost position, and the offsets read back as zero.
func TestTailerRewindAfterSeal(t *testing.T) {
	fx, tl := newTailFixture(t)
	fx.write(append(fx.record(10), fx.record(10)...), false)
	if got, err := poll(t, tl); err != nil || len(got) != 2 {
		t.Fatalf("poll = %v, %v", got, err)
	}
	if lag, err := tl.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag = %d, %v", lag, err)
	}
	tl.Rewind()
	if off := tl.Offsets(); len(off) != 1 || off[0] != 0 {
		t.Fatalf("offsets after Rewind = %v", off)
	}
	rec := fx.record(10)
	fx.write(rec, true) // truncation, then the next epoch's first record
	if lag, err := tl.Lag(); err != nil || lag != int64(len(rec)) {
		t.Fatalf("lag = %d, %v; want %d", lag, err, len(rec))
	}
	if got, err := poll(t, tl); err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("poll after seal = %v, %v; want [3]", got, err)
	}
}

// Seek inside the snapshot keeps it; outside drops it, and the next Fetch
// reads from the new position.
func TestTailerSeek(t *testing.T) {
	fx, tl := newTailFixture(t)
	a, b, c := fx.record(10), fx.record(10), fx.record(10)
	fx.write(append(append(a, b...), c...), false)
	if err := tl.Fetch(); err != nil {
		t.Fatal(err)
	}
	if !tl.Seek(0, int64(len(a))) {
		t.Fatal("seek inside the snapshot dropped it")
	}
	var got []uint64
	collect := func(r Record, _ []byte) bool { got = append(got, r.GSN); return r.GSN < 2 }
	tl.Scan(0, collect)
	if len(got) != 1 || got[0] != 2 || tl.Offsets()[0] != uint64(len(a)) {
		t.Fatalf("scan saw %v and moved to %v; a refused record must not be consumed", got, tl.Offsets())
	}
	if tl.Seek(0, 0) {
		t.Fatal("seek behind the snapshot kept it")
	}
	got = nil
	tl.Scan(0, collect)
	if len(got) != 0 {
		t.Fatalf("scan over a dropped snapshot saw %v", got)
	}
	if all, err := poll(t, tl); err != nil || len(all) != 3 {
		t.Fatalf("poll after seeking to 0 = %v, %v", all, err)
	}
}
