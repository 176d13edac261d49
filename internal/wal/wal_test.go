package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"phoebedb/internal/metrics"
)

func openTestManager(t *testing.T, writers int) *Manager {
	t.Helper()
	m, err := Open(Options{Dir: t.TempDir(), Writers: writers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestRecordRoundTrip(t *testing.T) {
	r := Record{Type: RecUpdate, GSN: 7, XID: 0x8000000000000010, TableID: 3, RowID: 42, Payload: []byte("delta-bytes")}
	enc := encodeRecord(nil, &r)
	got, n, ok := decodeRecord(enc)
	if !ok || n != len(enc) {
		t.Fatalf("decode failed: ok=%v n=%d len=%d", ok, n, len(enc))
	}
	if got.Type != r.Type || got.GSN != r.GSN || got.XID != r.XID || got.TableID != r.TableID || got.RowID != r.RowID || string(got.Payload) != string(r.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(typ uint8, gsn, xid, rowid uint64, table uint32, payload []byte) bool {
		r := Record{Type: RecordType(typ%5 + 1), GSN: gsn, XID: xid, TableID: table, RowID: rowid, Payload: payload}
		enc := encodeRecord(nil, &r)
		got, n, ok := decodeRecord(enc)
		if !ok || n != len(enc) {
			return false
		}
		if len(payload) == 0 && len(got.Payload) == 0 {
			return got.Type == r.Type && got.GSN == gsn
		}
		return got.Type == r.Type && got.GSN == gsn && got.XID == xid &&
			got.TableID == table && got.RowID == rowid && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := Record{Type: RecInsert, GSN: 1, Payload: []byte("payload")}
	enc := encodeRecord(nil, &r)
	// Flip a payload byte: checksum must fail.
	enc[len(enc)-1] ^= 0xFF
	if _, _, ok := decodeRecord(enc); ok {
		t.Fatal("corrupted record accepted")
	}
	// Truncated record must not decode.
	if _, _, ok := decodeRecord(enc[:10]); ok {
		t.Fatal("truncated record accepted")
	}
}

func TestNextGSNAdoptsPageGSN(t *testing.T) {
	m := openTestManager(t, 2)
	w := m.Writer(0)
	g1 := w.NextGSN(0)
	if g1 != 1 {
		t.Fatalf("first GSN = %d", g1)
	}
	g2 := w.NextGSN(100) // page was last written at GSN 100 by someone else
	if g2 != 101 {
		t.Fatalf("GSN after adopting page GSN 100 = %d", g2)
	}
	g3 := w.NextGSN(50) // lower page GSN must not move the clock back
	if g3 != 102 {
		t.Fatalf("GSN = %d, want 102", g3)
	}
}

func TestLSNStrictlyIncreasing(t *testing.T) {
	m := openTestManager(t, 1)
	w := m.Writer(0)
	var prev uint64
	for i := 0; i < 10; i++ {
		r := Record{Type: RecInsert, GSN: w.NextGSN(0)}
		w.Append(&r)
		if r.LSN <= prev {
			t.Fatalf("LSN %d not increasing", r.LSN)
		}
		prev = r.LSN
	}
}

func TestFlushAdvancesHorizon(t *testing.T) {
	m := openTestManager(t, 2)
	w := m.Writer(0)
	r := Record{Type: RecCommit, GSN: w.NextGSN(0)}
	w.Append(&r)
	if !w.pending() || len(logGSNs(t, m)) != 0 {
		t.Fatal("record left the buffer before flush")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.pending() {
		t.Fatal("flushed record still buffered")
	}
	if got := logGSNs(t, m); len(got) != 1 || got[0] != r.GSN {
		t.Fatalf("log holds GSNs %v, want [%d]", got, r.GSN)
	}
}

// TestFlushReleasesGrownBuffers: a bulk transaction's records grow its
// writer's buffer and the flush's concatenation far past a point write's.
// Once the flush has written them, neither array stays that large; a small
// transaction's buffer is kept for the next one.
func TestFlushReleasesGrownBuffers(t *testing.T) {
	m := openTestManager(t, 2)
	w := m.Writer(0)
	payload := make([]byte, 500)
	const bulk = 4000 // ~2 MB of records
	for i := 0; i < bulk; i++ {
		r := Record{Type: RecInsert, GSN: w.NextGSN(0), Payload: payload}
		w.Append(&r)
	}
	c := Record{Type: RecCommit, GSN: w.NextGSN(0)}
	w.Append(&c)
	if cap(w.buf) <= maxKeptBuf {
		t.Fatalf("bulk buffer capacity %d, want above %d", cap(w.buf), maxKeptBuf)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(logGSNs(t, m)); n != bulk+1 {
		t.Fatalf("log holds %d records, want %d", n, bulk+1)
	}
	m.mu.Lock()
	scratch := cap(m.scratch)
	m.mu.Unlock()
	w.mu.Lock()
	buf := cap(w.buf)
	w.mu.Unlock()
	if buf > maxKeptBuf || scratch > maxKeptBuf {
		t.Fatalf("after the flush the writer keeps %d B and the flush %d B, want <= %d", buf, scratch, maxKeptBuf)
	}

	small := Record{Type: RecCommit, GSN: w.NextGSN(0), Payload: payload[:16]}
	w.Append(&small)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	buf = cap(w.buf)
	w.mu.Unlock()
	if buf == 0 {
		t.Fatal("a small transaction's buffer was released")
	}
}

// logGSNs returns the GSNs of the records in m's log file, in file order.
func logGSNs(t *testing.T, m *Manager) []uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(m.Dir(), FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	var gsns []uint64
	Scan(data, 0, func(r Record, _ []byte) bool {
		gsns = append(gsns, r.GSN)
		return true
	})
	return gsns
}

func TestRecoveryOrdersByGSN(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := m.Writer(0), m.Writer(1)
	// Interleave: page ping-pongs between writers, so GSNs order the writes.
	var pageGSN uint64
	var wantOrder []uint64
	for i := 0; i < 6; i++ {
		w := w0
		if i%2 == 1 {
			w = w1
		}
		g := w.NextGSN(pageGSN)
		pageGSN = g
		rec := Record{Type: RecCommit, GSN: g, RowID: uint64(i)}
		w.Append(&rec)
		wantOrder = append(wantOrder, uint64(i))
	}
	m.FlushAll()
	// A GSN tie between writers keeps file order, whatever the LSNs: w1's
	// record at GSN 8 (its LSN 5) reaches the file before w0's (LSN 4).
	for _, rid := range []uint64{6, 7} {
		rec := Record{Type: RecCommit, GSN: w1.NextGSN(0), RowID: rid}
		w1.Append(&rec)
	}
	m.FlushAll()
	rec := Record{Type: RecCommit, GSN: w0.NextGSN(7), RowID: 8}
	w0.Append(&rec)
	m.Close()
	if rec.GSN != 8 || rec.LSN != 4 {
		t.Fatalf("tied record GSN %d LSN %d, want 8 and 4", rec.GSN, rec.LSN)
	}
	wantOrder = append(wantOrder, 6, 7, 8)

	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(wantOrder) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(wantOrder))
	}
	for i, r := range recs {
		if r.RowID != wantOrder[i] {
			t.Fatalf("record %d: RowID %d, want %d", i, r.RowID, wantOrder[i])
		}
	}
}

func TestRecoveryDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writer(0)
	for i := 0; i < 3; i++ {
		rec := Record{Type: RecCommit, GSN: w.NextGSN(0), RowID: uint64(i), Payload: []byte("data")}
		w.Append(&rec)
	}
	m.FlushAll()
	m.Close()

	// Simulate a crash mid-write: truncate the file inside the last record.
	path := filepath.Join(dir, "wal-0000.log")
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (torn tail dropped)", len(recs))
	}
}

func TestUnflushedRecordsNotRecovered(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writer(0)
	rec := Record{Type: RecInsert, GSN: w.NextGSN(0)}
	w.Append(&rec)
	// Crash without flush: close the raw file without flushing the buffer.
	m.f.Close()
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d unflushed records", len(recs))
	}
}

func TestIOCountersAndSyncMode(t *testing.T) {
	var io metrics.IOCounters
	m, err := Open(Options{Dir: t.TempDir(), Writers: 1, SyncOnFlush: true, IO: &io})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := m.Writer(0)
	rec := Record{Type: RecCommit, GSN: w.NextGSN(0), Payload: []byte("abc")}
	w.Append(&rec)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if io.Snapshot().WALWrite == 0 {
		t.Fatal("WAL write bytes not reported")
	}
}

func TestConcurrentAppendFlush(t *testing.T) {
	m := openTestManager(t, 4)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := m.Writer(s)
			for i := 0; i < 200; i++ {
				rec := Record{Type: RecCommit, GSN: w.NextGSN(0), RowID: uint64(i)}
				w.Append(&rec)
				if i%50 == 0 {
					if err := w.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendFlushBatch(b *testing.B) {
	m, err := Open(Options{Dir: b.TempDir(), Writers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	w := m.Writer(0)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := Record{Type: RecCommit, GSN: w.NextGSN(0), Payload: payload}
		w.Append(&rec)
		if i%128 == 127 {
			w.Flush()
		}
	}
}

// A checkpoint's log steps: rotation to the file of the horizon, then
// removal of every older file, a second one a directory written with
// several commit groups holds included.
func TestMaxGSNAndTruncate(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w0, w1 := m.Writer(0), m.Writer(1)
	r0 := Record{Type: RecCommit, GSN: w0.NextGSN(0)}
	w0.Append(&r0)
	r1 := Record{Type: RecCommit, GSN: w1.NextGSN(5)} // GSN 6
	w1.Append(&r1)
	// Rotation with unflushed buffers is refused.
	if err := m.Rotate(6); err == nil {
		t.Fatal("rotate with pending records accepted")
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if g := m.MaxGSN(); g != 6 {
		t.Fatalf("MaxGSN = %d, want 6", g)
	}
	legacy := filepath.Join(dir, FileName(3))
	if err := os.WriteFile(legacy, encodeRecord(nil, &Record{Type: RecInsert, GSN: 2}), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(m.MaxGSN()); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveOld(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d records after the old files' removal", len(recs))
	}
	if files, err := logFiles(dir); err != nil || len(files) != 1 || files[0].h != 6 {
		t.Fatalf("log files after removal = %v, %v; want %s alone", files, err, FileName(6))
	}
	// GSN clock survives the rotation: new records sort after history.
	if g := w1.NextGSN(0); g <= 6 {
		t.Fatalf("GSN regressed to %d after rotation", g)
	}
}

func TestFlushIOErrorSurfaces(t *testing.T) {
	// Failure injection: a dead file descriptor must surface as a flush
	// error (the engine aborts the committing transaction on it).
	m, err := Open(Options{Dir: t.TempDir(), Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writer(0)
	rec := Record{Type: RecCommit, GSN: w.NextGSN(0), Payload: []byte("doomed")}
	w.Append(&rec)
	m.f.Close() // simulate device failure
	if err := w.Flush(); err == nil {
		t.Fatal("flush on closed file succeeded")
	}
	// The record must stay buffered: nothing was written.
	if !w.pending() {
		t.Fatal("flush error dropped the unwritten record from the buffer")
	}
}

// writeTornFixture writes four flushed records into dir and returns the
// log path, its full contents, and the byte offset of the last record.
func writeTornFixture(t *testing.T, dir string) (string, []byte, int64) {
	t.Helper()
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writer(0)
	for i := 0; i < 4; i++ {
		rec := Record{Type: RecCommit, GSN: w.NextGSN(0), RowID: uint64(i), Payload: []byte{byte('a' + i), 'x', 'y'}}
		w.Append(&rec)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0000.log")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record's start by walking the decoded records.
	var lastOff int64
	for off := 0; off < len(full); {
		_, n, ok := decodeRecord(full[off:])
		if !ok {
			t.Fatalf("fixture log does not decode cleanly at %d", off)
		}
		lastOff = int64(off)
		off += n
	}
	return path, full, lastOff
}

// TestRecoverTornTailByteByByte corrupts the tail of a WAL file at every
// byte position — first by truncating inside the last record at each
// possible length, then by flipping each byte of the last record — and
// verifies that (a) recovery returns exactly the intact prefix and leaves
// the file as it found it, and (b) the log's owner, opening it, physically
// truncates the file back to that prefix, so later flushes are never
// stranded behind garbage.
func TestRecoverTornTailByteByByte(t *testing.T) {
	dir := t.TempDir()
	path, full, lastOff := writeTornFixture(t, dir)

	check := func(mutated []byte, wantRecs int, wantSize int64, what string) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := Recover(dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", what, err)
		}
		if len(recs) != wantRecs {
			t.Fatalf("%s: recovered %d records, want %d", what, len(recs), wantRecs)
		}
		for i, r := range recs {
			if r.RowID != uint64(i) || len(r.Payload) != 3 || r.Payload[0] != byte('a'+i) {
				t.Fatalf("%s: record %d corrupted: rowid=%d payload=%q", what, i, r.RowID, r.Payload)
			}
		}
		if st, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if st.Size() != int64(len(mutated)) {
			t.Fatalf("%s: recovery changed the file from %d to %d bytes", what, len(mutated), st.Size())
		}
		m, err := Open(Options{Dir: dir, Writers: 1})
		if err != nil {
			t.Fatalf("%s: open: %v", what, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != wantSize {
			t.Fatalf("%s: file is %d bytes after open, want physical truncation to %d", what, st.Size(), wantSize)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Every torn length: from the last record's first byte through one byte
	// short of complete.
	for cut := lastOff; cut < int64(len(full)); cut++ {
		check(full[:cut], 3, lastOff, fmt.Sprintf("truncate@%d", cut))
	}
	// Every single-byte corruption of the last record. CRC32 catches all of
	// them (it detects any single-bit error), so the tail must be dropped.
	for i := lastOff; i < int64(len(full)); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		check(mut, 3, lastOff, fmt.Sprintf("bitflip@%d", i))
	}

	// A recovered-then-reopened log must accept appends, and the appended
	// record must be readable on the next recovery.
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: dir, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writer(0)
	rec := Record{Type: RecCommit, GSN: w.NextGSN(0), RowID: 99, Payload: []byte("post")}
	w.Append(&rec)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records after post-recovery append, want 4", len(recs))
	}
	found := false
	for _, r := range recs {
		if r.RowID == 99 && string(r.Payload) == "post" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-recovery append not recovered")
	}
}
