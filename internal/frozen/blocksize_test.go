package frozen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// bigTags are the benchmark's `big` tag values: 251 strings of 60 bytes.
var bigTags = func() []string {
	pad := strings.Repeat("0123456789abcdefghijklmnopqrstuvwxyzABCD", 2)[:52]
	tags := make([]string, 251)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag-%03d-%s", i, pad)
	}
	return tags
}()

// bigRow is row i of the benchmark's `big` table, over wideSchema (the
// same five columns): 104 raw bytes, so 78 rows fill a block.
func bigRow(i int) rel.Row {
	return rel.Row{rel.Int(int64(i + 1)), rel.Int(int64(i)), rel.Float(float64(i % 1000)),
		rel.Int(int64(i % 100)), rel.Str(bigTags[i%len(bigTags)])}
}

// newBigStore freezes big rows [0, n) (row_id = seq + 1) as one segment.
func newBigStore(t testing.TB, n int) *Store {
	t.Helper()
	s := newWideStore(t)
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := range ids {
		ids[i], rows[i] = rel.RowID(i+1), bigRow(i)
	}
	mustFreeze(t, s, ids, rows)
	return s
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkBlockSizes fails unless every block of every segment of s that
// holds more than one row is at most blockTargetBytes raw.
func checkBlockSizes(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.segs {
		for i, b := range g.blocks {
			if b.rawLen > blockTargetBytes && b.numRows > 1 {
				t.Fatalf("block %d holds %d rows in %d raw bytes, want <= %d", i, b.numRows, b.rawLen, blockTargetBytes)
			}
		}
	}
}

// A cold point read that misses the block cache decodes one block to
// return one row: its compressed bytes, its ids and fixed strips, and its
// inflated strings with their value headers — about 12.6 KB for a block of
// `big` rows.
func TestColdGetAllocBytes(t *testing.T) {
	const n, gets = 20_000, 1000
	s := newBigStore(t, n)
	s.CacheBytes = 1 // every Get decodes
	checkBlockSizes(t, s)
	r := rand.New(rand.NewSource(7))
	rids := make([]rel.RowID, gets)
	for i := range rids {
		rids[i] = rel.RowID(1 + r.Intn(n))
	}
	s.Get(rids[0]) // primes the inflater pool
	var failed error
	perGet := totalAlloc(func() {
		for _, rid := range rids {
			if row, ok, err := s.Get(rid); err != nil || !ok || row[0].I != int64(rid) {
				failed = fmt.Errorf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
				return
			}
		}
	}) / gets
	if failed != nil {
		t.Fatal(failed)
	}
	// What taking an inflater from its pool costs by itself: nothing, except
	// under the race detector, where sync.Pool drops a share of Puts and
	// each miss builds a ~40 KB inflater.
	var empty bytes.Buffer
	fw, _ := flate.NewWriter(&empty, flate.BestSpeed)
	fw.Close()
	poolCost := totalAlloc(func() {
		for range gets {
			if err := inflate(nil, empty.Bytes()); err != nil {
				failed = err
				return
			}
		}
	}) / gets
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%d B allocated per cold Get, %d B of it the inflater pool's own", perGet, poolCost)
	if perGet > poolCost+27<<9 {
		t.Fatalf("a cold Get allocates %d B beyond the pool's %d B, want <= 13.5 KiB (about one decoded block)", perGet-poolCost, poolCost)
	}
}

// A row larger than blockTargetBytes gets a block of its own; the rows
// around it keep filling blocks as before.
func TestOversizeRowGetsItsOwnBlock(t *testing.T) {
	s := newTestStore(t)
	ids, rows := batch(1, 300)
	huge := strings.Repeat("x", 3*blockTargetBytes)
	rows[150][1] = rel.Str(huge)
	mustFreeze(t, s, ids, rows)
	checkBlockSizes(t, s)
	g := s.segs[0]
	b := g.blocks[g.blockFor(151)]
	if b.numRows != 1 || int(b.rawLen) <= 3*blockTargetBytes {
		t.Fatalf("the oversize row shares a %d-row, %d-byte block", b.numRows, b.rawLen)
	}
	for i, id := range ids {
		if row, ok, err := s.Get(id); err != nil || !ok || !row.Equal(rows[i]) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", id, row, ok, err)
		}
	}
}

// A segment build allocates one compressor, not one per block:
// flate.NewWriter costs ~1.2 MB, so one per block would be ~50 MB here.
func TestSegmentBuildAllocBytes(t *testing.T) {
	const n = 3200 // ~40 blocks of big rows
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = bigRow(i)
	}
	var sb *segmentBuilder
	var failed error
	alloc := totalAlloc(func() {
		sb = newSegmentBuilder(wideSchema(), 0, 0)
		for i, row := range rows {
			if err := sb.add(rel.RowID(i+1), row); err != nil {
				failed = err
				return
			}
		}
		_, _, failed = sb.finish()
	})
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%d blocks built in %d B", len(sb.blocks), alloc)
	if len(sb.blocks) < 32 {
		t.Fatalf("%d blocks, want >= 32", len(sb.blocks))
	}
	if alloc >= 4<<20 {
		t.Fatalf("building a %d-block segment allocated %d B, want < 4 MiB", len(sb.blocks), alloc)
	}
}

// testdata/parent512 is a store written once by the version-2 builder that
// cut a block every 512 rows: one segment of wideRow 0..2047 in four
// 512-row blocks, with its manifest. The directory records each block's row
// count and raw length, so it reads as it is; a merge rewrites it as a
// version-3 segment of blocks cut at blockTargetBytes.
func TestParent512BlocksReadAndMerge(t *testing.T) {
	data, err := os.ReadFile("testdata/parent512/cold.manifest")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	// The merge appends to the block file: work on a copy.
	blocks, err := os.ReadFile("testdata/parent512/frozen.blocks")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "frozen.blocks")
	if err := os.WriteFile(path, blocks, 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := storage.OpenBlockFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	s := NewStore(bf, wideSchema())
	if err := s.Import(m.Tables[0].Segments); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.segs[0].blocks {
		if b.numRows != 512 {
			t.Fatalf("fixture block holds %d rows, want the old 512", b.numRows)
		}
	}
	if len(s.segs[0].blocks) != 4 {
		t.Fatalf("fixture has %d blocks, want 4", len(s.segs[0].blocks))
	}
	verify := func(version uint32) {
		t.Helper()
		for _, meta := range s.Export() {
			img, err := bf.ReadBlock(meta.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(img[4:]); v != version {
				t.Fatalf("segment has version %d, want %d", v, version)
			}
			if err := VerifySegmentBytes(img, meta); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll := func() {
		t.Helper()
		for i := 0; i < 2048; i++ {
			if row, ok, err := s.Get(rel.RowID(i + 1)); err != nil || !ok || !row.Equal(wideRow(i)) {
				t.Fatalf("Get(%d) = (%v, %v, %v), want %v", i+1, row, ok, err, wideRow(i))
			}
		}
		if got := scanRows(t, s, nil, true); len(got) != 2048 {
			t.Fatalf("scan returned %d rows, want 2048", len(got))
		}
	}
	readAll()
	verify(2)

	s.Fanout = 1 // one segment is a full level: one Compact merges it
	if n, err := s.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact = (%d, %v), want the one segment merged", n, err)
	}
	if st := s.Stats(); st.Segments != 1 || st.MaxLevel != 1 || st.Blocks <= 4 {
		t.Fatalf("after the merge: %+v", st)
	}
	checkBlockSizes(t, s)
	verify(segmentVersion)
	readAll()
}

// BenchmarkColdGet is a cold point read that misses the block cache: one
// block inflated to return one row.
func BenchmarkColdGet(b *testing.B) {
	const n = 20_000
	s := newBigStore(b, n)
	s.CacheBytes = 1
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(rel.RowID(1 + r.Intn(n))); !ok || err != nil {
			b.Fatalf("Get = (%v, %v)", ok, err)
		}
	}
}

// BenchmarkColdRangeScan4096 is the benchmark's range aggregate over
// frozen rows: 4096 consecutive seq values, zone-pruned to the blocks they
// overlap, filtered on the strips and counted. It reads no string column,
// so no block's var stream is inflated.
func BenchmarkColdRangeScan4096(b *testing.B) {
	const n, span = 40_000, 4096
	s := newBigStore(b, n)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(r.Intn(n - span + 1))
		preds := between(wideSeq, rel.Int(lo), rel.Int(lo+span-1))
		count := 0
		err := s.ScanBlocks(preds, false, func(_ []rel.RowID, page *pax.Page, sel pax.Sel) bool {
			if err := page.FilterFixed(preds, sel); err != nil {
				b.Fatal(err)
			}
			count += sel.Count()
			return true
		})
		if err != nil || count != span {
			b.Fatalf("range counted %d rows (%v), want %d", count, err, span)
		}
	}
}
