package frozen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
)

// wideSchema has the benchmark's `big` shape: four fixed-width columns
// (zoned) and one string.
func wideSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "seq", Type: rel.TInt64},
		rel.Column{Name: "score", Type: rel.TFloat64},
		rel.Column{Name: "hits", Type: rel.TInt64},
		rel.Column{Name: "tag", Type: rel.TString},
	)
}

const (
	wideSeq   = 1
	wideScore = 2
	wideHits  = 3
	wideTag   = 4
)

// wideRow is row i: seq and score follow insertion order (so zones can
// prune on them), hits cycles (so they cannot).
func wideRow(i int) rel.Row {
	return rel.Row{rel.Int(int64(i + 1)), rel.Int(int64(i)), rel.Float(float64(i) / 4),
		rel.Int(int64(i % 7)), rel.Str(fmt.Sprintf("tag-%05d", i))}
}

// wideBatch builds rows [first, first+n) with row_id = seq + 1.
func wideBatch(first, n int) ([]rel.RowID, []rel.Row) {
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := range ids {
		ids[i] = rel.RowID(first + i + 1)
		rows[i] = wideRow(first + i)
	}
	return ids, rows
}

func newWideStore(t testing.TB) *Store {
	t.Helper()
	return newStoreWith(t, wideSchema())
}

func between(col int, lo, hi rel.Value) []rel.ColPred {
	return []rel.ColPred{{Col: col, Op: rel.CmpGe, Val: lo}, {Col: col, Op: rel.CmpLe, Val: hi}}
}

// scanRows returns what a filtered scan yields, as "rid:row" strings. With
// prune the predicates reach ScanBlocks (zone maps apply); without, every
// block streams and only the strip filter applies — the unpruned oracle.
func scanRows(t *testing.T, s *Store, preds []rel.ColPred, prune bool) []string {
	t.Helper()
	var zonePreds []rel.ColPred
	if prune {
		zonePreds = preds
	}
	var out []string
	err := s.ScanBlocks(zonePreds, true, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		if err := page.FilterFixed(preds, sel); err != nil {
			t.Fatal(err)
		}
		sel.ForEach(func(i int) bool {
			out = append(out, fmt.Sprintf("%d:%v", ids[i], page.Row(i)))
			return true
		})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scanDelta runs a pruned scan and returns its rows plus how many blocks it
// fetched and skipped.
func scanDelta(t *testing.T, s *Store, preds []rel.ColPred) (rows []string, fetched, pruned int64) {
	t.Helper()
	before := s.Stats()
	rows = scanRows(t, s, preds, true)
	after := s.Stats()
	return rows, after.ScanBlocks - before.ScanBlocks, after.ScanBlocksPruned - before.ScanBlocksPruned
}

// ScanBlocks skips segments, then blocks, whose zone maps refute a
// predicate, without reading them; ranges that start and end mid-block,
// fall on tombstones only, or fall in a flat segment come back exact.
func TestScanBlocksZonePruning(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 160) // 10 blocks, seq 0..159
	mustFreeze(t, s, ids, rows)
	ids, rows = wideBatch(1000, 160) // 10 blocks, seq 1000..1159
	mustFreeze(t, s, ids, rows)

	// Segment pruning: the first segment's ten blocks are skipped whole.
	got, fetched, pruned := scanDelta(t, s, []rel.ColPred{{Col: wideSeq, Op: rel.CmpGe, Val: rel.Int(500)}})
	if len(got) != 160 || fetched != 10 || pruned != 10 {
		t.Fatalf("seq >= 500: %d rows, %d blocks fetched, %d pruned; want 160/10/10", len(got), fetched, pruned)
	}
	// A predicate refuting both segments touches nothing.
	got, fetched, pruned = scanDelta(t, s, []rel.ColPred{{Col: wideSeq, Op: rel.CmpGt, Val: rel.Int(10_000)}})
	if len(got) != 0 || fetched != 0 || pruned != 20 {
		t.Fatalf("refuting predicate: %d rows, %d fetched, %d pruned", len(got), fetched, pruned)
	}
	// Block pruning: seq 23..41 starts in block 1 and ends in block 2.
	got, fetched, pruned = scanDelta(t, s, between(wideSeq, rel.Int(23), rel.Int(41)))
	if len(got) != 19 || fetched != 2 || pruned != 18 {
		t.Fatalf("seq 23..41: %d rows, %d fetched, %d pruned; want 19/2/18", len(got), fetched, pruned)
	}
	if want := fmt.Sprintf("24:%v", wideRow(23)); got[0] != want {
		t.Fatalf("first row %s, want %s", got[0], want)
	}
	// The same range on the float column, and an equality inside a block.
	if got, fetched, _ = scanDelta(t, s, between(wideScore, rel.Float(23.0/4), rel.Float(41.0/4))); len(got) != 19 || fetched != 2 {
		t.Fatalf("score range: %d rows, %d fetched; want 19/2", len(got), fetched)
	}
	if got, fetched, _ = scanDelta(t, s, []rel.ColPred{{Col: wideSeq, Op: rel.CmpEq, Val: rel.Int(1100)}}); len(got) != 1 || fetched != 1 {
		t.Fatalf("seq = 1100: %d rows, %d fetched; want 1/1", len(got), fetched)
	}
	// A column whose values cycle inside every block prunes nothing.
	if got, fetched, _ = scanDelta(t, s, []rel.ColPred{{Col: wideHits, Op: rel.CmpEq, Val: rel.Int(3)}}); fetched != 20 || len(got) == 0 {
		t.Fatalf("hits = 3: %d rows, %d fetched; want every block", len(got), fetched)
	}

	// A range covering only tombstoned rows: block 4 (seq 64..79) is dead.
	for seq := 64; seq < 80; seq++ {
		if ok, err := s.MarkDeleted(rel.RowID(seq + 1)); err != nil || !ok {
			t.Fatalf("MarkDeleted(seq %d) = (%v, %v)", seq, ok, err)
		}
	}
	if got, fetched, _ = scanDelta(t, s, between(wideSeq, rel.Int(66), rel.Int(77))); len(got) != 0 || fetched != 1 {
		t.Fatalf("tombstoned range: %d rows, %d fetched; want 0/1", len(got), fetched)
	}
	// ...and one straddling its edge sees only the live neighbours.
	if got, _, _ = scanDelta(t, s, between(wideSeq, rel.Int(60), rel.Int(82))); len(got) != 7 {
		t.Fatalf("range around the dead block: %d rows, want 7", len(got))
	}

	// A flat segment has no zones at all: its one block always streams.
	ids, rows = wideBatch(5000, 40)
	addFlatSegment(t, s, ids, rows)
	got, fetched, pruned = scanDelta(t, s, between(wideSeq, rel.Int(5010), rel.Int(5019)))
	if len(got) != 10 || fetched != 1 || pruned != 20 {
		t.Fatalf("range in the flat segment: %d rows, %d fetched, %d pruned; want 10/1/20", len(got), fetched, pruned)
	}
}

// Property: for random conjunctions of <,<=,>,>=,=,!= and BETWEEN on int
// and float columns over level-0, compacted and flat segments carrying
// tombstones, a pruned scan returns exactly what an unpruned one does.
func TestScanBlocksPruningEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := newWideStore(t)
	s.BlockRows = 16
	s.Fanout = 2
	const rowsPerBatch, batches = 100, 6
	for b := 0; b < batches; b++ {
		ids, rows := wideBatch(b*rowsPerBatch, rowsPerBatch)
		mustFreeze(t, s, ids, rows)
		if b == 3 {
			// Tombstones the merge purges, so compacted zones tighten.
			for i := 0; i < 40; i++ {
				s.MarkDeleted(rel.RowID(r.Intn(4*rowsPerBatch) + 1))
			}
			if _, err := s.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids, rows := wideBatch(batches*rowsPerBatch, 50)
	addFlatSegment(t, s, ids, rows)
	total := batches*rowsPerBatch + 50
	if st := s.Stats(); st.MaxLevel < 1 || st.Segments < 3 {
		t.Fatalf("tier shape: %+v", st)
	}
	// Tombstones that stay: scattered ones and one whole block's worth.
	for i := 0; i < 60; i++ {
		s.MarkDeleted(rel.RowID(r.Intn(total) + 1))
	}
	for seq := 416; seq < 432; seq++ {
		s.MarkDeleted(rel.RowID(seq + 1))
	}

	ops := []rel.CmpOp{rel.CmpEq, rel.CmpNe, rel.CmpLt, rel.CmpLe, rel.CmpGt, rel.CmpGe}
	value := func(col int) rel.Value {
		v := r.Intn(total+40) - 20 // a little outside the data on both sides
		switch col {
		case wideScore:
			return rel.Float(float64(v) / 4)
		case wideHits:
			return rel.Int(int64(v % 9))
		}
		return rel.Int(int64(v))
	}
	before := s.Stats()
	for iter := 0; iter < 600; iter++ {
		var preds []rel.ColPred
		for n := 1 + r.Intn(3); n > 0; n-- {
			col := []int{0, wideSeq, wideScore, wideHits}[r.Intn(4)]
			if r.Intn(4) == 0 {
				lo, hi := value(col), value(col)
				preds = append(preds, between(col, lo, hi)...) // lo > hi: an empty range
				continue
			}
			preds = append(preds, rel.ColPred{Col: col, Op: ops[r.Intn(len(ops))], Val: value(col)})
		}
		got, want := scanRows(t, s, preds, true), scanRows(t, s, preds, false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("preds %+v:\npruned   %v\nunpruned %v", preds, got, want)
		}
	}
	if after := s.Stats(); after.ScanBlocksPruned == before.ScanBlocksPruned {
		t.Fatal("600 random predicates pruned no block: zone maps are not firing")
	}
}

// The benchmark's shape: a range eight blocks wide over a 100-block
// segment reads the 8-9 blocks it overlaps, not the segment. Every wideRow
// has the same raw size, so the builder cuts every block at the same row
// count: the most that fit in blockTargetBytes.
func TestRangeScanDecodesOnlyOverlappingBlocks(t *testing.T) {
	perBlock := (blockTargetBytes - blockOverhead) / rawRowBytes(wideRow(0))
	s := newWideStore(t)
	ids, rows := wideBatch(0, 100*perBlock)
	mustFreeze(t, s, ids, rows)
	if st := s.Stats(); st.Segments != 1 || st.Blocks != 100 {
		t.Fatalf("shape: %+v", st)
	}
	span, lo := 8*perBlock, 40*perBlock+perBlock/3
	got, fetched, pruned := scanDelta(t, s, between(wideSeq, rel.Int(int64(lo)), rel.Int(int64(lo+span-1))))
	if len(got) != span {
		t.Fatalf("range returned %d rows, want %d", len(got), span)
	}
	if fetched > 10 || fetched+pruned != 100 {
		t.Fatalf("%d-row range fetched %d of 100 blocks (%d pruned), want <= 10", span, fetched, pruned)
	}
}

// Scans read the point-read LRU but never fill, reorder or count against it.
func TestScanLeavesPointReadCacheAlone(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 320) // 20 blocks
	mustFreeze(t, s, ids, rows)
	for _, seq := range []int{5, 100, 200} { // three blocks, oldest first
		if _, ok, err := s.Get(rel.RowID(seq + 1)); !ok || err != nil {
			t.Fatalf("Get(seq %d) = (%v, %v)", seq, ok, err)
		}
	}
	lruOrder := func() string {
		s.cacheMu.Lock()
		defer s.cacheMu.Unlock()
		var keys []int
		for el := s.cacheLRU.Front(); el != nil; el = el.Next() {
			keys = append(keys, el.Value.(*cacheEntry).key.idx)
		}
		return fmt.Sprint(keys, s.cacheUsed)
	}
	order, before := lruOrder(), s.Stats()
	if n := len(scanRows(t, s, nil, true)); n != 320 {
		t.Fatalf("full scan returned %d rows", n)
	}
	after := s.Stats()
	if got := lruOrder(); got != order {
		t.Fatalf("full scan changed the LRU: %s -> %s", order, got)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("full scan moved the point-read cache counters: %+v -> %+v", before, after)
	}
	if after.ScanBlocks-before.ScanBlocks != 20 {
		t.Fatalf("full scan fetched %d blocks, want 20", after.ScanBlocks-before.ScanBlocks)
	}
}

// Strings read from a block alias its var values, and the executor's
// buffering stages (ORDER BY, hash build) keep them after the scan
// callback returns, while the scan reuses its other buffers from block to
// block: every row kept from a 40-block scan, half of its blocks cached by
// point reads and half read from the file, must be intact after the scan
// and after a second one. This is why decode never recycles var values.
func TestBufferedStringsSurviveLaterBlocks(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 640) // 40 blocks
	mustFreeze(t, s, ids, rows)
	for rid := 1; rid <= 640; rid += 32 { // every other block cached
		if _, ok, err := s.Get(rel.RowID(rid)); !ok || err != nil {
			t.Fatalf("Get(%d) = (%v, %v)", rid, ok, err)
		}
	}
	var kept []rel.Row
	if err := s.ScanBlocks(nil, true, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		for i := range ids {
			kept = append(kept, page.Row(i))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	// Churn the decoder again so anything recyclable would have been reused.
	if n := len(scanRows(t, s, nil, true)); n != 640 {
		t.Fatalf("second scan returned %d rows", n)
	}
	if len(kept) != 640 {
		t.Fatalf("kept %d rows, want 640", len(kept))
	}
	for seq, row := range kept {
		if want := wideRow(seq); !row.Equal(want) {
			t.Fatalf("row buffered from block %d = %v after later decodes, want %v", seq/16, row, want)
		}
	}
}

// decodeBlock's allocations are the ids, the fixed strips, the var buffer
// and its value headers, and the page view's headers — independent of the
// row count, and the LZ decoder adds none. Decoding into a scan's reused
// buffers drops the ids and the strips; decoding without strings decodes
// no var stream and allocates less still.
func TestDecodeBlockAllocs(t *testing.T) {
	sb := newSegmentBuilder(wideSchema(), 0, DefaultBlockRows)
	for i := 0; i < DefaultBlockRows; i++ {
		if err := sb.add(rel.RowID(i+1), wideRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, hlen, err := sb.finish()
	if err != nil {
		t.Fatal(err)
	}
	b := sb.blocks[0] // a full block, cut at blockTargetBytes
	comp := data[hlen+int(b.compOff) : hlen+int(b.compOff+b.compLen)]
	schema := wideSchema()
	allocs := testing.AllocsPerRun(100, func() {
		d, err := decodeBlock(schema, segmentVersion, comp, b.rawLen, true)
		if err != nil || len(d.ids) != int(b.numRows) || d.rows.Col(7, wideTag).S != "tag-00007" {
			t.Fatalf("decode: %v", err)
		}
	})
	p, err := parseBlock(schema, segmentVersion, comp, b.rawLen)
	if err != nil {
		t.Fatal(err)
	}
	var buf scanBuf
	reused := testing.AllocsPerRun(100, func() {
		d, err := p.decode(schema, true, &buf)
		if err != nil || len(d.ids) != int(b.numRows) || d.rows.Col(7, wideTag).S != "tag-00007" {
			t.Fatalf("decode: %v", err)
		}
	})
	before := Inflates()
	fixedAllocs := testing.AllocsPerRun(100, func() {
		d, err := p.decode(schema, false, &buf)
		if err != nil || d.rows.Col(7, wideSeq).I != 7 || d.rows.Col(7, wideScore).F != 7.0/4 {
			t.Fatalf("decode: %v", err)
		}
	})
	t.Logf("%.0f allocations per decode, %.0f into reused buffers, %.0f without strings", allocs, reused, fixedAllocs)
	if allocs > 9 || reused > allocs-2 {
		t.Fatalf("decoding a 5-column block allocates %.0f times, %.0f into reused buffers; want <= 9 and 2 fewer", allocs, reused)
	}
	if n := Inflates() - before; n != 0 || fixedAllocs > 4 {
		t.Fatalf("decoding without strings decoded %d var streams in %.0f allocations, want 0 in <= 4", n, fixedAllocs)
	}
}

// sealed joins a header to a segment body and makes the manifest record
// agree with the result (lengths and whole-segment CRC): with the header's
// own CRC recomputed by its encoder, a forgery no checksum catches.
func sealed(hdr, body []byte, m SegmentMeta) ([]byte, SegmentMeta) {
	out := append(append([]byte(nil), hdr...), body...)
	m.HeaderLen, m.Ref.Len, m.CRC = len(hdr), int32(len(out)), crc32.ChecksumIEEE(out)
	return out, m
}

// resealHeader rewrites data's header through mutate and reseals it.
func resealHeader(t *testing.T, data []byte, m SegmentMeta, mutate func(g *segment)) ([]byte, SegmentMeta) {
	t.Helper()
	g, err := decodeSegmentHeader(data[:m.HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	mutate(g)
	return sealed(g.encodeHeader(), data[m.HeaderLen:], m)
}

// v1Header rewrites a version-2 header as the version-1 writer laid it
// out, field by field rather than through encodeHeader: no block-zone
// section, and a levelled segment's zone section always marked present,
// with a count of zero for a table that has no fixed-width column.
func v1Header(t testing.TB, hdr []byte) []byte {
	t.Helper()
	g, err := decodeSegmentHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	out := le.AppendUint32(nil, segmentMagic)
	out = le.AppendUint32(out, 1)
	out = le.AppendUint32(out, uint32(g.level))
	if g.flat {
		out = append(out, segFlagFlat)
	} else {
		out = append(out, 0)
	}
	out = le.AppendUint32(out, uint32(g.numRows))
	out = le.AppendUint32(out, uint32(len(g.blocks)))
	for _, b := range g.blocks {
		out = le.AppendUint64(out, uint64(b.firstRID))
		out = le.AppendUint64(out, uint64(b.lastRID))
		out = le.AppendUint32(out, b.numRows)
		out = le.AppendUint32(out, b.rawLen)
		out = le.AppendUint32(out, b.compOff)
		out = le.AppendUint32(out, b.compLen)
	}
	if g.flat {
		out = append(out, 0, 0) // no bloom, no zones
	} else {
		out = g.filter.encode(append(out, 1))
		out = le.AppendUint16(append(out, 1), uint16(len(g.zones)))
		for _, z := range g.zones {
			out = le.AppendUint16(out, z.Col)
			out = append(out, byte(z.Kind))
			out = le.AppendUint64(out, z.Min)
			out = le.AppendUint64(out, z.Max)
		}
	}
	return le.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// flatSegment lays out, field by field, the segment the retired flat
// writer produced for one freeze batch: a single block holding every row,
// segFlagFlat set, no bloom filter and no zones. No writer emits these any
// more; the reader still takes them from old stores and backups.
func flatSegment(t testing.TB, schema *rel.Schema, ids []rel.RowID, rows []rel.Row) (data []byte, headerLen int) {
	t.Helper()
	le := binary.LittleEndian
	page := pax.NewPage(schema, len(rows))
	for _, row := range rows {
		if _, err := page.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	body, rawLen := legacyBlock(t, ids, page)
	hdr := le.AppendUint32(nil, segmentMagic)
	hdr = le.AppendUint32(hdr, 2) // flat segments predate version 3
	hdr = le.AppendUint32(hdr, 0) // level
	hdr = append(hdr, segFlagFlat)
	hdr = le.AppendUint32(hdr, uint32(len(ids)))
	hdr = le.AppendUint32(hdr, 1) // one block
	hdr = le.AppendUint64(hdr, uint64(ids[0]))
	hdr = le.AppendUint64(hdr, uint64(ids[len(ids)-1]))
	hdr = le.AppendUint32(hdr, uint32(len(ids)))
	hdr = le.AppendUint32(hdr, uint32(rawLen))
	hdr = le.AppendUint32(hdr, 0) // compOff
	hdr = le.AppendUint32(hdr, uint32(len(body)))
	hdr = append(hdr, 0, 0)       // no bloom, no zones
	hdr = le.AppendUint32(hdr, 0) // no block zones
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	return append(hdr, body...), len(hdr)
}

// legacyBlock lays out a block the way writers before version 3 did: one
// DEFLATE stream of count u32 | ids u64[] | pax image. It returns the
// stream and the raw image's length.
func legacyBlock(t testing.TB, ids []rel.RowID, page *pax.Page) ([]byte, int) {
	t.Helper()
	raw := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(id))
	}
	raw = page.Serialize(raw)
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return body.Bytes(), len(raw)
}

// asVersion2 rewrites a segment the builder wrote as the version-2 writer
// laid it out: the same header in version 2, every block a legacyBlock.
func asVersion2(t testing.TB, schema *rel.Schema, data []byte, m SegmentMeta) ([]byte, SegmentMeta) {
	t.Helper()
	g, err := decodeSegmentHeader(data[:m.HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for i := range g.blocks {
		b := &g.blocks[i]
		off := m.HeaderLen + int(b.compOff)
		d, err := decodeBlock(schema, g.version, data[off:off+int(b.compLen)], b.rawLen, true)
		if err != nil {
			t.Fatal(err)
		}
		comp, rawLen := legacyBlock(t, d.ids, d.rows)
		if rawLen != int(b.rawLen) {
			t.Fatalf("block %d: version-2 image of %d bytes, directory says %d", i, rawLen, b.rawLen)
		}
		b.compOff, b.compLen = uint32(len(body)), uint32(len(comp))
		body = append(body, comp...)
	}
	g.version = 2
	return sealed(g.encodeHeader(), body, m)
}

// addFlatSegment installs a flatSegment of the batch at the tail of s the
// way a recovered manifest would: through Import.
func addFlatSegment(t testing.TB, s *Store, ids []rel.RowID, rows []rel.Row) {
	t.Helper()
	data, hlen := flatSegment(t, s.schema, ids, rows)
	ref, err := s.bf.AppendBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	metas := append(s.Export(), SegmentMeta{Flat: true, FirstRID: ids[0], LastRID: ids[len(ids)-1],
		NumRows: len(ids), Ref: ref, HeaderLen: hlen, CRC: crc32.ChecksumIEEE(data)})
	s.mu.Lock()
	s.segs = nil
	s.mu.Unlock()
	if err := s.Import(metas); err != nil {
		t.Fatal(err)
	}
}

// VerifySegmentBytes holds block zones to the zone invariant as far as it
// can without a schema: one per block per segment zone, min <= max, nested
// inside the segment zone.
func TestVerifyRejectsLyingBlockZones(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 64)
	mustFreeze(t, s, ids, rows)
	m := s.Export()[0]
	data, err := s.bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if same, m2 := resealHeader(t, data, m, func(*segment) {}); string(same) != string(data) || m2.CRC != m.CRC {
		t.Fatal("decode + encodeHeader is not the identity on a written header")
	}
	for name, mutate := range map[string]func(g *segment){
		"outside the segment zone": func(g *segment) { g.zonesOf(1)[wideSeq].Max = 1 << 40 },
		"below the segment zone":   func(g *segment) { g.zonesOf(2)[wideScore].Min = pax.RawBits(rel.Float(-1)) },
		"min above max":            func(g *segment) { z := &g.zonesOf(3)[0]; z.Min, z.Max = z.Max, z.Min },
	} {
		bad, bm := resealHeader(t, data, m, mutate)
		if err := VerifySegmentBytes(bad, bm); err == nil {
			t.Fatalf("block zone %s accepted", name)
		}
	}
	// A wrong block-zone count does not even decode.
	g, _ := decodeSegmentHeader(data[:m.HeaderLen])
	g.blockZones = g.blockZones[:len(g.blockZones)-1]
	if _, err := decodeSegmentHeader(g.encodeHeader()); err == nil {
		t.Fatal("header with a missing block zone decoded")
	}
}

// A version-1 segment (written before block zones existed) imports,
// verifies and scans: it just prunes per segment only.
func TestVersion1SegmentReadsWithoutBlockZones(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 160)
	mustFreeze(t, s, ids, rows)
	m := s.Export()[0]
	data, err := s.bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	data, m = asVersion2(t, s.schema, data, m)
	v1, m1 := sealed(v1Header(t, data[:m.HeaderLen]), data[m.HeaderLen:], m)
	if err := VerifySegmentBytes(v1, m1); err != nil {
		t.Fatalf("version-1 image rejected: %v", err)
	}
	old := newWideStore(t)
	if m1.Ref, err = old.bf.AppendBlock(v1); err != nil {
		t.Fatal(err)
	}
	if err := old.Import([]SegmentMeta{m1}); err != nil {
		t.Fatal(err)
	}
	preds := between(wideSeq, rel.Int(23), rel.Int(41))
	got, fetched, pruned := scanDelta(t, old, preds)
	if want := scanRows(t, s, preds, true); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 19 {
		t.Fatalf("version-1 scan = %v, want %v", got, want)
	}
	if fetched != 10 || pruned != 0 {
		t.Fatalf("version-1 segment fetched %d, pruned %d blocks; want 10/0 (no block zones)", fetched, pruned)
	}
	if row, ok, err := old.Get(30); err != nil || !ok || !row.Equal(wideRow(29)) {
		t.Fatalf("Get on version-1 segment = (%v, %v, %v)", row, ok, err)
	}
	checkGetMatchesScan(t, old)
}

// varSchema has no fixed-width column, so its segments carry no zones. The
// version-1 writer still marked the zone section present, with a count of
// zero; that spelling must keep decoding.
func varSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TString},
		rel.Column{Name: "v", Type: rel.TString},
	)
}

func varBatch(n int) ([]rel.RowID, []rel.Row) {
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for i := range ids {
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Str(fmt.Sprintf("k%04d", i)), rel.Str(fmt.Sprintf("v%04d", i))}
	}
	return ids, rows
}

func TestVersion1AllVarWidthSegmentReads(t *testing.T) {
	open := func() *Store {
		s := newStoreWith(t, varSchema())
		s.BlockRows = 16
		return s
	}
	s := open()
	ids, rows := varBatch(40)
	mustFreeze(t, s, ids, rows)
	m := s.Export()[0]
	data, err := s.bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	data, m = asVersion2(t, s.schema, data, m)
	hdr := v1Header(t, data[:m.HeaderLen])
	g, err := decodeSegmentHeader(hdr)
	if err != nil {
		t.Fatalf("version-1 header with an empty zone section rejected: %v", err)
	}
	if g.zones != nil || g.blockZones != nil {
		t.Fatalf("zoneless version-1 header decoded with %d zones, %d block zones", len(g.zones), len(g.blockZones))
	}
	// The same spelling under version 2 is not canonical and is refused.
	v2 := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v2 = binary.LittleEndian.AppendUint32(v2[:len(v2)-4], 0) // block-zone count
	v2 = binary.LittleEndian.AppendUint32(v2, crc32.ChecksumIEEE(v2))
	if _, err := decodeSegmentHeader(v2); err == nil {
		t.Fatal("version-2 header with an empty zone section marked present decoded")
	}

	v1, m1 := sealed(hdr, data[m.HeaderLen:], m)
	if err := VerifySegmentBytes(v1, m1); err != nil {
		t.Fatalf("version-1 image rejected: %v", err)
	}
	old := open()
	if m1.Ref, err = old.bf.AppendBlock(v1); err != nil {
		t.Fatal(err)
	}
	if err := old.Import([]SegmentMeta{m1}); err != nil {
		t.Fatal(err)
	}
	if got, want := scanRows(t, old, nil, true), scanRows(t, s, nil, true); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 40 {
		t.Fatalf("version-1 scan = %v, want %v", got, want)
	}
	if row, ok, err := old.Get(30); err != nil || !ok || !row.Equal(rows[29]) {
		t.Fatalf("Get on version-1 segment = (%v, %v, %v)", row, ok, err)
	}
	// A merge rewrites it as version 3, with the one spelling of "no zones".
	old.Fanout = 2
	mustFreeze(t, old, []rel.RowID{100}, []rel.Row{{rel.Str("k"), rel.Str("v")}})
	if n, err := old.Compact(); err != nil || n != 2 {
		t.Fatalf("Compact = (%d, %v), want 2 segments merged", n, err)
	}
	nm := old.Export()
	if len(nm) != 1 {
		t.Fatalf("%d segments after the merge, want 1", len(nm))
	}
	merged, err := old.bf.ReadBlock(nm[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(merged[4:]); v != segmentVersion {
		t.Fatalf("merged segment has version %d", v)
	}
	if err := VerifySegmentBytes(merged, nm[0]); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(t, old, nil, true); len(got) != 41 {
		t.Fatalf("after compaction: %d rows, want 41", len(got))
	}
}
