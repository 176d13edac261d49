package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// logRecords flushes n records of payload bytes each through writer 0 and
// returns their encoding, the bytes the log must hold for them.
func logRecords(t *testing.T, m *Manager, n, payload int) []byte {
	t.Helper()
	w := m.Writer(0)
	var want []byte
	for i := 0; i < n; i++ {
		rec := Record{Type: RecCommit, GSN: w.NextGSN(0), RowID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, payload)}
		w.Append(&rec)
		want = append(want, encodeRecord(nil, &rec)...)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// requireInPlace skips where the log's first flush could not reserve
// space: there it is appended to, as on a platform without fallocate.
func requireInPlace(t *testing.T, m *Manager) {
	t.Helper()
	if m.end == noReserve {
		t.Skip("fallocate unsupported here: the log is appended to")
	}
}

// After the first flush reserves a chunk, small flushes write inside it:
// the file's size, and so its metadata, does not change per commit.
func TestInPlaceFlushKeepsFileSize(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1, SyncOnFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	path := filepath.Join(dir, FileName(0))
	logRecords(t, m, 1, 60)
	requireInPlace(t, m)
	size := fileSize(t, path)
	for i := 0; i < 100; i++ {
		logRecords(t, m, 1, 60)
		if got := fileSize(t, path); got != size {
			t.Fatalf("flush %d changed the file's size from %d to %d", i+2, size, got)
		}
	}
}

// A cleanly closed log holds exactly its records' bytes: Close cuts the
// reserved space.
func TestCloseLeavesOnlyRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := logRecords(t, m, 50, 30)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("closed log holds %d bytes, want its %d record bytes", len(got), len(want))
	}
}

// A manager opened over a torn tail, with no Recover in between, writes
// its records where a reader reaches them: Open cuts the torn bytes and
// the next flush lands at the end of the last whole record.
func TestOpenAfterTornWriteKeepsNewRecordsReachable(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	logRecords(t, m, 3, 20)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(0))
	torn := encodeRecord(nil, &Record{Type: RecInsert, GSN: 99, Payload: []byte("torn away")})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err = Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Writer(0).RaiseGSN(3)
	logRecords(t, m, 4, 20)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if len(recs) != 7 {
		t.Fatalf("recovered %d records, want the 3 before the tear and the 4 after", len(recs))
	}
	for i, r := range recs {
		if r.GSN != uint64(i+1) {
			t.Fatalf("record %d has GSN %d, want %d", i, r.GSN, i+1)
		}
	}
}

// The owner's Recover returns what the package's Recover reads from the
// directory: the records Open read, each once, those flushed since Open,
// and none of a file a checkpoint removed.
func TestManagerRecoverMatchesDirectory(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	logRecords(t, m, 6, 20)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { m.Close() }()
	m.Writer(0).RaiseGSN(6)
	logRecords(t, m, 3, 20) // a fresh engine's catalog records, say
	check := func(what string, want int) {
		t.Helper()
		got, err := m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		read, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want || len(read) != want {
			t.Fatalf("%s: manager recovered %d records, directory holds %d, want %d", what, len(got), len(read), want)
		}
		for i := range got {
			if got[i].GSN != read[i].GSN || !bytes.Equal(got[i].Payload, read[i].Payload) {
				t.Fatalf("%s: record %d is GSN %d, the directory's is GSN %d", what, i, got[i].GSN, read[i].GSN)
			}
		}
	}
	check("first call", 9)
	check("second call", 9)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err = Open(Options{Dir: dir, Writers: 1}); err != nil {
		t.Fatal(err)
	}
	m.Writer(0).RaiseGSN(9)
	if err := m.Rotate(9); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveOld(); err != nil {
		t.Fatal(err)
	}
	logRecords(t, m, 2, 20)
	check("after rotation", 2)
}

// Recover only reads: a torn tail and a live log's reserved space are both
// on disk as they were after it.
func TestRecoverLeavesFileUnchanged(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	logRecords(t, m, 5, 20)
	path := filepath.Join(dir, FileName(0))
	check := func(what string) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Fatalf("%s: recovered %d records, want 5", what, len(recs))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: Recover changed the file from %d to %d bytes", what, len(before), len(after))
		}
	}
	check("live log")
	// A second, torn file, as a directory written by an earlier release
	// may hold.
	legacy := encodeRecord(nil, &Record{Type: RecInsert, GSN: 50})
	if err := os.WriteFile(filepath.Join(dir, FileName(1)), legacy[:len(legacy)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn legacy file")
	if got := fileSize(t, filepath.Join(dir, FileName(1))); got != int64(len(legacy)-1) {
		t.Fatalf("torn legacy file is %d bytes after Recover, want %d", got, len(legacy)-1)
	}
}

// Lag counts whole records only: once a tailer has read every record of
// a log with reserved space past its end, nothing is left to archive.
func TestTailerLagZeroOnReservedLog(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want := logRecords(t, m, 20, 40)
	// Reserve past the records whatever the platform: space fallocate
	// reserved reads as zeros, as this extension does.
	if err := m.f.Truncate(int64(len(want)) + reserveChunk); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0, 0)
	got, err := poll(t, tl)
	if err != nil || len(got) != 20 {
		t.Fatalf("poll = %d records, %v; want 20", len(got), err)
	}
	if lag, err := tl.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag after reading every record = %d, %v; want 0", lag, err)
	}
	rec := logRecords(t, m, 1, 40)
	if lag, err := tl.Lag(); err != nil || lag != int64(len(rec)) {
		t.Fatalf("lag after one more record = %d, %v; want %d", lag, err, len(rec))
	}
}

// A tailer follows a log while the manager reserves new chunks, writes
// into them, and checkpoints rotate it, each checkpoint sealed the way the
// archiver seals one: the tailer reads the old file to its end and moves to
// the new one, and only then is the old file removed. Every record is
// handed out exactly once, no Fetch reads more than one chunk past the
// whole records it found, and a rotated file holds its records only.
func TestTailerFollowsInPlaceLog(t *testing.T) {
	const (
		epochs   = 3
		perEpoch = 4400 // 4400 × ~1.1 KB passes the first reserved chunk
		payload  = 1024
		batch    = 8
	)
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := m.Writer(0)
	epochDone := make(chan uint64) // the horizon of the checkpoint ending the epoch
	sealed := make(chan struct{})
	var werr error
	reserves := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the engine: commits, then a checkpoint per epoch
		defer wg.Done()
		defer close(epochDone)
		for e := 0; e < epochs; e++ {
			for i := 0; i < perEpoch; i++ {
				rec := Record{Type: RecCommit, GSN: w.NextGSN(0), Payload: make([]byte, payload)}
				w.Append(&rec)
				if i%batch == batch-1 || i == perEpoch-1 {
					m.mu.Lock()
					end := m.end
					m.mu.Unlock()
					if werr = w.Flush(); werr != nil {
						return
					}
					m.mu.Lock()
					if m.end != end {
						reserves++
					}
					m.mu.Unlock()
				}
			}
			cp := m.MaxGSN()
			if werr = m.Rotate(cp); werr != nil {
				return
			}
			epochDone <- cp
			<-sealed
			if werr = m.RemoveOld(); werr != nil {
				return
			}
		}
	}()

	tl := NewTailer(dir, 0, 0)
	seen := make(map[uint64]int)
	fetch := func() error {
		before := tl.read
		if err := tl.Fetch(); err != nil {
			return err
		}
		var whole int64
		for _, f := range tl.snap {
			whole += int64(len(f.buf))
		}
		if past := tl.read - before - whole; past > readChunk {
			return fmt.Errorf("fetch read %d bytes past %d bytes of whole records", past, whole)
		}
		for next := true; next; {
			file, off := tl.Position()
			end := off + int64(len(tl.snap[0].buf))
			next = tl.Scan(func(r Record, _ []byte) bool {
				seen[r.GSN]++
				return true
			})
			if !next {
				break
			}
			// A rotated file is cut to its records, as Close cuts one.
			if size := fileSize(t, filepath.Join(dir, FileName(file))); size != end {
				return fmt.Errorf("rotated file %s is %d bytes, its records end at %d", FileName(file), size, end)
			}
		}
		return nil
	}
	for {
		if err := fetch(); err != nil {
			t.Fatal(err)
		}
		select {
		case cp, ok := <-epochDone:
			if !ok {
				wg.Wait()
				if werr != nil {
					t.Fatal(werr)
				}
				if m.end != noReserve && reserves < 2*epochs {
					t.Fatalf("the log reserved space %d times in %d epochs, want at least two per epoch", reserves, epochs)
				}
				if len(seen) != epochs*perEpoch {
					t.Fatalf("tailer handed out %d records, want %d", len(seen), epochs*perEpoch)
				}
				for g, n := range seen {
					if n != 1 {
						t.Fatalf("record %d handed out %d times", g, n)
					}
				}
				return
			}
			for file, _ := tl.Position(); file != cp; file, _ = tl.Position() {
				if err := fetch(); err != nil {
					t.Fatal(err)
				}
			}
			if lag, err := tl.Lag(); err != nil || lag != 0 {
				t.Fatalf("lag at seal = %d, %v; want 0", lag, err)
			}
			sealed <- struct{}{}
		default:
		}
	}
}

// A record longer than one read chunk is read whole: the scanner grows its
// buffer to the record instead of stopping at the chunk's end.
func TestRecordLongerThanReadChunk(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	logRecords(t, m, 1, 10)
	logRecords(t, m, 1, 3*readChunk+7)
	logRecords(t, m, 1, 10)
	if recs, err := Recover(dir); err != nil || len(recs) != 3 || len(recs[1].Payload) != 3*readChunk+7 {
		t.Fatalf("Recover = %d records, %v; want 3, the second of %d bytes", len(recs), err, 3*readChunk+7)
	}
	if got, err := poll(t, NewTailer(dir, 0, 0)); err != nil || len(got) != 3 {
		t.Fatalf("poll = %v, %v; want 3 records", got, err)
	}
}
