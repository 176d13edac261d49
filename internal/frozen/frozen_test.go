package frozen

import (
	"fmt"
	"path/filepath"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

func testSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "payload", Type: rel.TString},
	)
}

func newTestStore(t *testing.T) *Store {
	t.Helper()
	return newStoreWith(t, testSchema())
}

// newStoreWith opens a store of the schema over a fresh block file.
func newStoreWith(t testing.TB, schema *rel.Schema) *Store {
	t.Helper()
	bf, err := storage.OpenBlockFile(filepath.Join(t.TempDir(), "frozen.blocks"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	return NewStore(bf, schema)
}

func batch(first, n int) ([]rel.RowID, []rel.Row) {
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := 0; i < n; i++ {
		ids[i] = rel.RowID(first + i)
		rows[i] = rel.Row{rel.Int(int64(first + i)), rel.Str(fmt.Sprintf("frozen-row-%d", first+i))}
	}
	return ids, rows
}

func mustFreeze(t testing.TB, s *Store, ids []rel.RowID, rows []rel.Row) {
	t.Helper()
	if err := s.Freeze(ids, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeAndGet(t *testing.T) {
	s := newTestStore(t)
	ids, rows := batch(1, 50)
	mustFreeze(t, s, ids, rows)
	if s.NumSegments() != 1 || s.MaxRID() != 50 {
		t.Fatalf("NumSegments=%d MaxRID=%d", s.NumSegments(), s.MaxRID())
	}
	for i, id := range ids {
		row, ok, err := s.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !row.Equal(rows[i]) {
			t.Fatalf("Get(%d) = (%v,%v)", id, row, ok)
		}
	}
	if _, ok, _ := s.Get(999, nil); ok {
		t.Fatal("absent rid found")
	}
	if s.CompressedBytes() <= 0 {
		t.Fatal("no bytes written")
	}
	st := s.Stats()
	if st.Lookups != 51 || st.FreezeBytes <= 0 || st.RawBytes <= st.FreezeBytes {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFreezeValidation(t *testing.T) {
	s := newTestStore(t)
	ids, rows := batch(1, 10)
	if err := s.Freeze(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := s.Freeze(ids[:5], rows[:4]); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	bad := append([]rel.RowID(nil), ids...)
	bad[3] = bad[2]
	if err := s.Freeze(bad, rows); err == nil {
		t.Fatal("non-ascending ids accepted")
	}
	mustFreeze(t, s, ids, rows)
	// Overlapping range rejected.
	if err := s.Freeze(ids, rows); err == nil {
		t.Fatal("overlapping freeze accepted")
	}
}

func TestMultipleSegmentsAndRouting(t *testing.T) {
	s := newTestStore(t)
	for b := 0; b < 5; b++ {
		ids, rows := batch(b*100+1, 20) // gaps between segments
		mustFreeze(t, s, ids, rows)
	}
	if s.NumSegments() != 5 {
		t.Fatalf("NumSegments = %d", s.NumSegments())
	}
	// Row in third segment.
	row, ok, err := s.Get(215, nil)
	if err != nil || !ok || row[0].I != 215 {
		t.Fatalf("Get(215) = (%v,%v,%v)", row, ok, err)
	}
	// Gap between segments: absent.
	if _, ok, _ := s.Get(50, nil); ok {
		t.Fatal("rid in gap found")
	}
}

// Rid gaps inside a segment's range are answered by the bloom filter
// without reading any block: the read amplification of an absent-key
// lookup is zero segments.
func TestBloomNegativesTouchNothing(t *testing.T) {
	s := newTestStore(t)
	n := 500
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := 0; i < n; i++ {
		ids[i] = rel.RowID(2 * (i + 1)) // even rids only
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Str("x")}
	}
	mustFreeze(t, s, ids, rows)
	misses := 0
	for i := 1; i < n; i++ { // odd rids 3..2n-1, all inside the segment's range
		if _, ok, err := s.Get(rel.RowID(2*i+1), nil); ok || err != nil {
			t.Fatalf("odd rid %d = (%v, %v)", 2*i+1, ok, err)
		}
		misses++
	}
	st := s.Stats()
	if st.BloomNegatives+st.SegmentsProbed < int64(misses) {
		t.Fatalf("misses unaccounted: %+v", st)
	}
	// 10 bits/key, 7 hashes: ~1% false positives. Allow 10x slack.
	if st.BloomNegatives < int64(misses)*9/10 {
		t.Fatalf("only %d/%d bloom negatives", st.BloomNegatives, misses)
	}
}

func TestMarkDeleted(t *testing.T) {
	s := newTestStore(t)
	ids, rows := batch(1, 10)
	mustFreeze(t, s, ids, rows)
	ok, err := s.MarkDeleted(5)
	if err != nil || !ok {
		t.Fatalf("MarkDeleted = (%v,%v)", ok, err)
	}
	if _, ok, _ := s.Get(5, nil); ok {
		t.Fatal("deleted row still visible")
	}
	if ok, _ := s.MarkDeleted(5); ok {
		t.Fatal("double delete reported live")
	}
	if ok, _ := s.MarkDeleted(999); ok {
		t.Fatal("delete of absent row reported live")
	}
	// Neighbors unaffected.
	if _, ok, _ := s.Get(4, nil); !ok {
		t.Fatal("neighbor lost")
	}
	// Undelete restores visibility (warming-txn rollback).
	s.Undelete(5)
	if _, ok, _ := s.Get(5, nil); !ok {
		t.Fatal("undeleted row invisible")
	}
}

func TestScanLiveSkipsDeleted(t *testing.T) {
	s := newTestStore(t)
	ids1, rows1 := batch(1, 5)
	mustFreeze(t, s, ids1, rows1)
	ids2, rows2 := batch(10, 5)
	mustFreeze(t, s, ids2, rows2)
	s.MarkDeleted(3)
	s.MarkDeleted(12)
	var seen []rel.RowID
	if err := s.ScanLive(func(rid rel.RowID, row rel.Row) bool {
		seen = append(seen, rid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []rel.RowID{1, 2, 4, 5, 10, 11, 13, 14}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", seen, want)
	}
	// Early stop.
	n := 0
	s.ScanLive(func(rel.RowID, rel.Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanDoesNotWarm(t *testing.T) {
	s := newTestStore(t)
	s.WarmThreshold = 2
	ids, rows := batch(1, 5)
	mustFreeze(t, s, ids, rows)
	for i := 0; i < 10; i++ {
		s.ScanLive(func(rel.RowID, rel.Row) bool { return true })
	}
	if s.ShouldWarm(1) {
		t.Fatal("table scan warmed the block (§5.2 violation)")
	}
}

func TestWarmThresholdAndExtract(t *testing.T) {
	s := newTestStore(t)
	s.WarmThreshold = 3
	ids, rows := batch(1, 6)
	mustFreeze(t, s, ids, rows)
	s.MarkDeleted(2)
	if s.ShouldWarm(1) {
		t.Fatal("cold block reported warm")
	}
	for i := 0; i < 3; i++ {
		s.Get(1, nil)
	}
	if !s.ShouldWarm(1) {
		t.Fatal("block not warm after threshold reads")
	}
	gotIDs, gotRows, err := s.ExtractLive(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != 5 || len(gotRows) != 5 {
		t.Fatalf("extracted %d rows", len(gotIDs))
	}
	for _, id := range gotIDs {
		if id == 2 {
			t.Fatal("deleted row extracted")
		}
	}
	// After extraction everything is tombstoned.
	if _, ok, _ := s.Get(1, nil); ok {
		t.Fatal("extracted row still live")
	}
	n := 0
	s.ScanLive(func(rel.RowID, rel.Row) bool { n++; return true })
	if n != 0 {
		t.Fatalf("%d live rows after extraction", n)
	}
	if s.ShouldWarm(1) {
		t.Fatal("warm counter not reset after extraction")
	}
}

// Warming is per block, not per segment: reads of one block must not
// report the segment's other blocks warm.
func TestWarmingIsPerBlock(t *testing.T) {
	s := newTestStore(t)
	s.WarmThreshold = 2
	s.BlockRows = 4
	ids, rows := batch(1, 12) // three 4-row blocks in one segment
	mustFreeze(t, s, ids, rows)
	if s.Stats().Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", s.Stats().Blocks)
	}
	for i := 0; i < 2; i++ {
		s.Get(1, nil) // first block only
	}
	if !s.ShouldWarm(2) {
		t.Fatal("read block not warm")
	}
	if s.ShouldWarm(6) || s.ShouldWarm(10) {
		t.Fatal("unread blocks reported warm")
	}
	gotIDs, _, err := s.ExtractLive(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != 4 {
		t.Fatalf("extracted %d rows, want the 4-row block", len(gotIDs))
	}
	// Rows in the other blocks stay frozen and live.
	if _, ok, _ := s.Get(6, nil); !ok {
		t.Fatal("row in unwarmed block lost")
	}
}

func TestCacheEvictionAndCounters(t *testing.T) {
	s := newTestStore(t)
	s.CacheBytes = 1 // every load evicts the previous block
	for b := 0; b < 6; b++ {
		ids, rows := batch(b*10+1, 5)
		mustFreeze(t, s, ids, rows)
	}
	for b := 0; b < 6; b++ {
		if _, ok, err := s.Get(rel.RowID(b*10+1), nil); !ok || err != nil {
			t.Fatalf("segment %d unreadable", b)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 6 || st.CacheHits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/6", st.CacheHits, st.CacheMisses)
	}
	// Evicted blocks remain readable (re-decompress, counted as misses).
	if _, ok, _ := s.Get(1, nil); !ok {
		t.Fatal("evicted block unreadable")
	}
	if st = s.Stats(); st.CacheMisses != 7 {
		t.Fatalf("misses = %d after re-read, want 7", st.CacheMisses)
	}
	// A roomy cache serves repeats from memory.
	s2 := newTestStore(t)
	ids, rows := batch(1, 50)
	mustFreeze(t, s2, ids, rows)
	for i := 0; i < 10; i++ {
		s2.Get(25, nil)
	}
	if st := s2.Stats(); st.CacheMisses != 1 || st.CacheHits != 9 {
		t.Fatalf("hits=%d misses=%d, want 9/1", st.CacheHits, st.CacheMisses)
	}
}

// Compaction merges a full level into one next-level segment, purging
// tombstoned rows for good; survivors stay readable throughout.
func TestCompactionMergesAndPurges(t *testing.T) {
	s := newTestStore(t)
	s.Fanout = 2
	s.BlockRows = 8
	for b := 0; b < 4; b++ {
		ids, rows := batch(b*100+1, 20)
		mustFreeze(t, s, ids, rows)
	}
	s.MarkDeleted(5)
	s.MarkDeleted(105)
	merged, err := s.CompactAll()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("nothing compacted")
	}
	st := s.Stats()
	if st.Segments != 1 || st.MaxLevel < 2 || st.Compactions == 0 || st.CompactBytes <= 0 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	// Purged rows gone, survivors intact, order preserved.
	var seen []rel.RowID
	s.ScanLive(func(rid rel.RowID, _ rel.Row) bool { seen = append(seen, rid); return true })
	if len(seen) != 78 {
		t.Fatalf("%d live rows after compaction, want 78", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("compacted scan out of rid order")
		}
	}
	for _, rid := range []rel.RowID{5, 105} {
		if _, ok, _ := s.Get(rid, nil); ok {
			t.Fatalf("purged rid %d still visible", rid)
		}
	}
	if row, ok, _ := s.Get(301, nil); !ok || row[0].I != 301 {
		t.Fatal("survivor lost in merge")
	}
	// Deletes keep working against the merged segment.
	if ok, err := s.MarkDeleted(301); err != nil || !ok {
		t.Fatalf("delete after compaction = (%v,%v)", ok, err)
	}
	if _, ok, _ := s.Get(301, nil); ok {
		t.Fatal("post-compaction tombstone ignored")
	}
}

// A merge whose inputs are fully tombstoned produces no output segment.
func TestCompactionDropsAllDeadInputs(t *testing.T) {
	s := newTestStore(t)
	s.Fanout = 2
	for b := 0; b < 2; b++ {
		ids, rows := batch(b*10+1, 3)
		mustFreeze(t, s, ids, rows)
		for _, id := range ids {
			s.MarkDeleted(id)
		}
	}
	if _, err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if n := s.NumSegments(); n != 0 {
		t.Fatalf("%d segments of pure tombstones survive", n)
	}
}

// Legacy flat segments (one whole-batch block, no bloom or zones) are
// read-only input: they import, verify, answer point reads without a bloom
// filter, and a merge rewrites them as levelled segments.
func TestLegacyFlatSegmentsRead(t *testing.T) {
	s := newTestStore(t)
	s.BlockRows = 4
	for b := 0; b < 5; b++ {
		ids, rows := batch(b*100+1, 20)
		addFlatSegment(t, s, ids, rows)
	}
	st := s.Stats()
	if st.Segments != 5 || st.Blocks != 5 {
		t.Fatalf("flat stats = %+v, want one block per segment", st)
	}
	for _, m := range s.Export() {
		data, err := s.bf.ReadBlock(m.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Flat {
			t.Fatalf("segment at %d exported as levelled", m.FirstRID)
		}
		if err := VerifySegmentBytes(data, m); err != nil {
			t.Fatalf("flat segment at %d rejected: %v", m.FirstRID, err)
		}
	}
	if row, ok, _ := s.Get(215, nil); !ok || row[0].I != 215 {
		t.Fatal("flat segment unreadable")
	}
	if _, ok, _ := s.Get(50, nil); ok {
		t.Fatal("gap rid found")
	}
	if st := s.Stats(); st.BloomNegatives != 0 {
		t.Fatalf("flat store reported %d bloom negatives", st.BloomNegatives)
	}
	checkGetMatchesScan(t, s)
	if n, err := s.CompactAll(); err != nil || n < 4 {
		t.Fatalf("compaction over flat segments = (%d,%v), want a merge", n, err)
	}
	for _, m := range s.Export() {
		if m.Flat && m.Level > 0 {
			t.Fatalf("merge wrote a flat level-%d segment", m.Level)
		}
	}
	if got := scanRows(t, s, nil, true); len(got) != 100 {
		t.Fatalf("%d rows after the merge, want 100", len(got))
	}
	if row, ok, _ := s.Get(215, nil); !ok || row[0].I != 215 {
		t.Fatal("row lost in the merge")
	}
	checkGetMatchesScan(t, s)
}

// Read amplification of the compacted tier, as counts: a present key
// probes exactly one segment (levels are rid-disjoint), and a key absent
// from its segment's rid range or refused by its bloom filter is answered
// without a block read.
func TestCompactedPointReadAmplification(t *testing.T) {
	s := newTestStore(t)
	s.BlockRows = 16
	s.Fanout = 2
	var present []rel.RowID
	for b := 0; b < 8; b++ {
		ids := make([]rel.RowID, 40)
		rows := make([]rel.Row, 40)
		for i := range ids {
			ids[i] = rel.RowID(b*100 + 2*(i+1)) // even rids; gaps between batches
			rows[i] = rel.Row{rel.Int(int64(ids[i])), rel.Str("x")}
		}
		mustFreeze(t, s, ids, rows)
		present = append(present, ids...)
	}
	if n, err := s.CompactAll(); err != nil || n == 0 {
		t.Fatalf("CompactAll = (%d, %v)", n, err)
	}
	if st := s.Stats(); st.MaxLevel < 1 {
		t.Fatalf("tier not compacted: %+v", st)
	}
	before := s.Stats()
	for _, rid := range present {
		if row, ok, err := s.Get(rid, nil); err != nil || !ok || row[0].I != int64(rid) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
		}
	}
	after := s.Stats()
	n := int64(len(present))
	if probed := after.SegmentsProbed - before.SegmentsProbed; after.Lookups-before.Lookups != n || probed > n {
		t.Fatalf("%d present-key lookups probed %d segments", n, probed)
	}
	// Absent keys: odd rids inside a segment's range (the bloom filter's
	// case) and rids past the last segment (the directory's).
	before = after
	absent := 0
	for _, rid := range present {
		if _, ok, err := s.Get(rid+1, nil); ok || err != nil {
			t.Fatalf("absent rid %d = (%v, %v)", rid+1, ok, err)
		}
		absent++
	}
	for rid := rel.RowID(5000); rid < 5100; rid++ {
		if _, ok, _ := s.Get(rid, nil); ok {
			t.Fatalf("rid %d past the tier found", rid)
		}
		absent++
	}
	after = s.Stats()
	falsePositives := after.SegmentsProbed - before.SegmentsProbed
	loads := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses)
	if loads != falsePositives {
		t.Fatalf("%d block loads for %d bloom false positives", loads, falsePositives)
	}
	// 10 bits/key, 7 hashes: ~1% false positives. Allow 5x slack.
	if falsePositives > int64(absent)/20 {
		t.Fatalf("%d of %d absent-key lookups read a block", falsePositives, absent)
	}
}

func TestCompressionActuallyShrinks(t *testing.T) {
	s := newTestStore(t)
	n := 500
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := 0; i < n; i++ {
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Str("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")}
	}
	mustFreeze(t, s, ids, rows)
	rawEstimate := int64(n * (8 + 40))
	if s.CompressedBytes() >= rawEstimate/2 {
		t.Fatalf("compressed %d bytes, raw estimate %d: compression ineffective", s.CompressedBytes(), rawEstimate)
	}
}

// VerifySegmentBytes must accept every segment the store writes and
// reject any single-byte corruption of it.
func TestVerifySegmentBytes(t *testing.T) {
	bf, err := storage.OpenBlockFile(filepath.Join(t.TempDir(), "frozen.blocks"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	s := NewStore(bf, testSchema())
	s.BlockRows = 8
	ids, rows := batch(1, 30)
	if err := s.Freeze(ids, rows); err != nil {
		t.Fatal(err)
	}
	m := s.Export()[0]
	data, err := bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentBytes(data, m); err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}
	for _, off := range []int{0, 10, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xFF
		if VerifySegmentBytes(bad, m) == nil {
			t.Fatalf("corruption at byte %d undetected", off)
		}
	}
	short := m
	short.NumRows++
	if VerifySegmentBytes(data, short) == nil {
		t.Fatal("manifest/header row-count disagreement undetected")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Epoch: 7,
		Tables: []TableManifest{
			{Table: "kv", Segments: []SegmentMeta{
				{Level: 1, FirstRID: 1, LastRID: 90, NumRows: 80,
					Ref: storage.BlockRef{Offset: 8, Len: 4096}, HeaderLen: 128, CRC: 0xDEAD,
					Deleted: []rel.RowID{4, 17}},
				{Level: 0, Flat: true, FirstRID: 100, LastRID: 120, NumRows: 21,
					Ref: storage.BlockRef{Offset: 4104, Len: 512}, HeaderLen: 64, CRC: 0xBEEF},
			}},
			{Table: "empty"},
		},
	}
	data := EncodeManifest(m)
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
	for _, off := range []int{0, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if _, err := DecodeManifest(bad); err == nil {
			t.Fatalf("manifest corruption at byte %d undetected", off)
		}
	}
	if _, err := DecodeManifest(data[:3]); err == nil {
		t.Fatal("truncated manifest accepted")
	}
	// Out-of-order segments rejected.
	bad := &Manifest{Tables: []TableManifest{{Table: "t", Segments: []SegmentMeta{
		{FirstRID: 100, LastRID: 200, NumRows: 1, Ref: storage.BlockRef{Len: 1}, HeaderLen: 1},
		{FirstRID: 1, LastRID: 50, NumRows: 1, Ref: storage.BlockRef{Len: 1}, HeaderLen: 1},
	}}}}
	if _, err := DecodeManifest(EncodeManifest(bad)); err == nil {
		t.Fatal("out-of-order manifest accepted")
	}
}

func BenchmarkFrozenGet(b *testing.B) {
	bf, _ := storage.OpenBlockFile(filepath.Join(b.TempDir(), "f.blocks"), nil)
	defer bf.Close()
	s := NewStore(bf, testSchema())
	ids, rows := batch(1, 1000)
	s.Freeze(ids, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(rel.RowID(i%1000+1), nil)
	}
}
