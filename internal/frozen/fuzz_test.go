package frozen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// FuzzSegmentManifest throws arbitrary bytes at the manifest decoder: it
// must never panic, and anything it accepts must re-encode to an image
// that decodes to the same directory (no silent truncation or aliasing —
// a corrupted manifest that slips through would resurrect or lose cold
// segments at recovery).
func FuzzSegmentManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeManifest(&Manifest{}))
	f.Add(EncodeManifest(&Manifest{
		Epoch: 3,
		Tables: []TableManifest{
			{Table: "kv", Segments: []SegmentMeta{
				{Level: 0, FirstRID: 1, LastRID: 64, NumRows: 60,
					Ref: storage.BlockRef{Offset: 8, Len: 2048}, HeaderLen: 96, CRC: 0x1234,
					Deleted: []rel.RowID{7}},
				{Level: 1, Flat: true, FirstRID: 65, LastRID: 128, NumRows: 64,
					Ref: storage.BlockRef{Offset: 2056, Len: 1024}, HeaderLen: 80, CRC: 0x5678},
			}},
			{Table: "orders"},
		},
	}))
	long := EncodeManifest(&Manifest{Epoch: ^uint64(0), Tables: []TableManifest{
		{Table: "very-long-table-name-with-unicode-éè", Segments: []SegmentMeta{
			{FirstRID: 1, LastRID: 1, NumRows: 1, Ref: storage.BlockRef{Len: 1}, HeaderLen: 1},
		}},
	}})
	f.Add(long)
	// A few corruptions of a valid image as seeds.
	for _, off := range []int{0, 8, len(long) / 2, len(long) - 1} {
		bad := append([]byte(nil), long...)
		bad[off] ^= 0xFF
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := EncodeManifest(m)
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if m.Epoch != m2.Epoch || len(m.Tables) != len(m2.Tables) {
			t.Fatalf("roundtrip drift: %+v vs %+v", m, m2)
		}
		for i := range m.Tables {
			if m.Tables[i].Table != m2.Tables[i].Table ||
				len(m.Tables[i].Segments) != len(m2.Tables[i].Segments) {
				t.Fatalf("table %d drift", i)
			}
		}
	})
}

// fuzzSegmentHeaders builds the hand-made FuzzSegmentHeader seeds: a
// levelled version-3 header, a flat one, a version-1 header, the
// version-1 header of a table with no fixed-width column (zone section
// present, zero zones — a spelling only version 1 has), a version-3
// header of 200 blocks the builder cut at blockTargetBytes (three ~2.7 KB
// rows each), and the first header as version 2 wrote it.
func fuzzSegmentHeaders(t testing.TB) [][]byte {
	build := func(schema *rel.Schema, rows []rel.Row) []byte {
		sb := newSegmentBuilder(schema, 1, 4)
		for i, row := range rows {
			if err := sb.add(rel.RowID(i+1), row); err != nil {
				t.Fatal(err)
			}
		}
		data, hlen, err := sb.finish()
		if err != nil {
			t.Fatal(err)
		}
		return data[:hlen]
	}
	ids, rows := batch(1, 10)
	_, varRows := varBatch(10)
	v3 := build(testSchema(), rows)
	v2 := append([]byte(nil), v3...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	binary.LittleEndian.PutUint32(v2[len(v2)-4:], crc32.ChecksumIEEE(v2[:len(v2)-4]))
	flat, hlen := flatSegment(t, testSchema(), ids[:6], rows[:6])
	wide := make([]rel.Row, 600)
	for i := range wide {
		wide[i] = rel.Row{rel.Int(int64(i)), rel.Str(strings.Repeat(string(rune('a'+i%26)), 2700))}
	}
	return [][]byte{v3, flat[:hlen], v1Header(t, v3), v1Header(t, build(varSchema(), varRows)), build(testSchema(), wide), v2}
}

// FuzzSegmentHeader throws arbitrary bytes at the segment header decoder
// (the CRC is recomputed so mutations reach the parser): it must never
// panic, a header it accepts must satisfy what readers index by — one
// block zone per block per segment zone, or none before version 2 — and a
// header of version 2 or later must re-encode to the very same bytes, so
// nothing the decoder tolerates can be silently rewritten by a later merge
// or backup.
func FuzzSegmentHeader(f *testing.F) {
	f.Add([]byte{})
	for _, hdr := range fuzzSegmentHeaders(f) {
		f.Add(hdr)
		for _, off := range []int{4, 12, len(hdr) / 2, len(hdr) - 12} {
			bad := append([]byte(nil), hdr...)
			bad[off] ^= 0xFF
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		}
		g, err := decodeSegmentHeader(data)
		if err != nil {
			return
		}
		if len(g.blocks) == 0 || len(g.reads) != len(g.blocks) {
			t.Fatalf("accepted header with %d blocks, %d read counters", len(g.blocks), len(g.reads))
		}
		if binary.LittleEndian.Uint32(data[4:]) == 1 {
			if g.blockZones != nil {
				t.Fatal("version-1 header decoded with block zones")
			}
			return
		}
		if len(g.blockZones) != len(g.blocks)*len(g.zones) {
			t.Fatalf("%d block zones for %d blocks x %d zones", len(g.blockZones), len(g.blocks), len(g.zones))
		}
		for i := range g.blocks {
			_ = g.zonesOf(i)
		}
		if re := g.encodeHeader(); !bytes.Equal(re, data) {
			t.Fatalf("accepted header is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// fuzzColdBlocks builds the FuzzColdBlock seeds, version-4 blocks of
// edgeSchema with their directory raw lengths: 16 rows of edge values
// (MinInt64 and MaxInt64 in one strip, NaN and -0.0, empty strings), the
// same rows under ids a merge left sparse, and the one-row block of a row
// larger than blockTargetBytes. The version-3 seeds are the corpus files
// under testdata/fuzz/FuzzColdBlock and the blocks of testdata/v3edge.
func fuzzColdBlocks(t testing.TB) []storedBlock {
	build := func(ids []rel.RowID, rows []rel.Row) storedBlock {
		sb := newSegmentBuilder(edgeSchema(), 0, len(ids))
		for i, id := range ids {
			if err := sb.add(id, rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		data, hlen, err := sb.finish()
		if err != nil {
			t.Fatal(err)
		}
		b := sb.blocks[0]
		return storedBlock{comp: data[hlen+int(b.compOff) : hlen+int(b.compOff+b.compLen)], rawLen: b.rawLen}
	}
	ids := make([]rel.RowID, 16)
	sparse := make([]rel.RowID, 16)
	rows := make([]rel.Row, 16)
	for k := range rows {
		ids[k], sparse[k], rows[k] = rel.RowID(k+1), rel.RowID(1000+37*k*k), edgeRow(k)
	}
	big := edgeRow(3)
	big[2] = rel.Str(strings.Repeat("o", 2*blockTargetBytes))
	return []storedBlock{build(ids, rows), build(sparse, rows), build([]rel.RowID{7}, []rel.Row{big})}
}

// FuzzColdBlock throws mutated blocks at the block reader of both strip
// versions, 3 (DEFLATE var stream) and 4 (LZ); the block CRC is
// recomputed so mutations reach the parser. Parsing, the presence check
// of every id, admission to the point-read cache and both whole-block
// unpacks, with and without strings, must return an error or a result and
// never panic. Admission must fail exactly when the whole-block unpack
// does, and on an admitted block every point read — the miss that serves
// its row from admission's decode, and a hit that decodes only as far as
// its row — returns the unpacked row, both of edgeSchema's string columns
// included.
func FuzzColdBlock(f *testing.F) {
	for _, b := range fuzzColdBlocks(f) {
		f.Add(b.comp, b.rawLen)
		// The same block with its id base forged near 2^64, so that its
		// ascending offsets give ids that wrap; both paths must refuse it.
		wrapped := append([]byte(nil), b.comp...)
		binary.LittleEndian.PutUint64(wrapped[6:], ^uint64(0)-8)
		f.Add(wrapped, b.rawLen)
	}
	for _, b := range v3EdgeBlocks(f) {
		f.Add(b.comp, b.rawLen)
	}
	schema := edgeSchema()
	f.Fuzz(func(t *testing.T, comp []byte, rawLen uint32) {
		if len(comp) >= 4 {
			comp = append([]byte(nil), comp...)
			binary.LittleEndian.PutUint32(comp[len(comp)-4:], crc32.Checksum(comp[:len(comp)-4], blockCRC))
		}
		for _, version := range []uint32{3, 4} {
			checkColdBlock(t, schema, version, comp, rawLen)
		}
	})
}

// checkColdBlock is FuzzColdBlock's check of one block read as version.
func checkColdBlock(t *testing.T, schema *rel.Schema, version uint32, comp []byte, rawLen uint32) {
	bare, bareErr := decodeBlock(nil, version, comp, rawLen, true)
	b, err := parseBlock(schema, version, comp, rawLen)
	if err != nil {
		return
	}
	for i := 0; i < b.strips.n; i++ {
		b.has(rel.RowID(b.strips.ids.at(i)))
	}
	full, fullErr := b.decode(schema, true, nil)
	fixed, fixedErr := b.decode(schema, false, nil)
	vars, admitErr := b.admit()
	if (admitErr == nil) != (fullErr == nil) {
		t.Fatalf("admission: %v; whole-block unpack: %v", admitErr, fullErr)
	}
	if admitErr != nil {
		return
	}
	defer putScratch(vars)
	if fixedErr != nil || bareErr != nil || fmt.Sprint(bare.ids) != fmt.Sprint(full.ids) {
		t.Fatalf("admitted block: unpack without strings %v; schema-less decode = (%v, %v), with the schema %v", fixedErr, bare.ids, bareErr, full.ids)
	}
	var hit, miss rel.Row // reused from read to read, as a transaction's row buffer is
	for i, rid := range full.ids {
		want := full.rows.Row(i)
		if hit, _, err = b.get(schema, rid, hit, nil); err != nil || !sameRow(hit, want) {
			t.Fatalf("hit read of %d = (%v, %v), unpacked row %v", rid, hit, err, want)
		}
		if miss, _, err = b.get(schema, rid, miss, vars); err != nil || !sameRow(miss, want) {
			t.Fatalf("miss read of %d = (%v, %v), unpacked row %v", rid, miss, err, want)
		}
		for c, col := range schema.Cols {
			if col.Type.FixedWidth() > 0 && !sameRow(rel.Row{fixed.rows.Col(i, c)}, rel.Row{hit[c]}) {
				t.Fatalf("row %d column %d: %v unpacked without strings, %v read in place", rid, c, fixed.rows.Col(i, c), hit[c])
			}
		}
	}
}

// v3EdgeBlocks returns the blocks of testdata/v3edge, a store the
// version-3 (DEFLATE) writer wrote over edgeSchema, with their directory
// raw lengths.
func v3EdgeBlocks(t testing.TB) []storedBlock {
	s := openV3Edge(t)
	var out []storedBlock
	for _, g := range s.segs {
		for bi, b := range g.blocks {
			comp, err := s.bf.ReadBlock(g.bodyRef(bi))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, storedBlock{comp: comp, rawLen: b.rawLen})
		}
	}
	return out
}

// FuzzLZ throws arbitrary streams at the LZ decoder and arbitrary inputs
// at the encoder. Decoding into an n-byte output, guarded on both sides,
// must never panic or write outside it, and must either fail or fill it
// exactly, so the same stream fails into n-1 or n+1 bytes; and every
// input must survive an encode and decode unchanged, also when the decode
// stops and resumes (lzStream.fill) every few bytes, as a point read's
// does.
func FuzzLZ(f *testing.F) {
	var e lzEncoder
	for _, in := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte("ab"), 100),
		[]byte(strings.Repeat("tag-000-0123456789abcdef", 40)), []byte("0123456789abcdefghij")} {
		enc := e.encode(nil, in)
		f.Add(enc, uint16(len(in)))
		f.Add(in, uint16(len(in)))
	}
	for _, b := range fuzzColdBlocks(f) {
		p, err := parseStrips(nil, segmentVersion, b.comp, b.rawLen)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.varComp, uint16(p.varRaw))
	}
	const guard = 16
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		decode := func(n int) ([]byte, error) {
			buf := bytes.Repeat([]byte{0xA5}, n+2*guard)
			err := lzDecode(buf[guard:guard+n:guard+n], data)
			for i := range guard {
				if buf[i] != 0xA5 || buf[guard+n+i] != 0xA5 {
					t.Fatalf("decoding into %d bytes wrote outside them", n)
				}
			}
			return buf[guard : guard+n], err
		}
		if _, err := decode(int(n)); err == nil {
			if _, err := decode(int(n) + 1); err == nil {
				t.Fatalf("a stream that fills %d bytes also decoded into %d", n, n+1)
			}
			if n > 0 {
				if _, err := decode(int(n) - 1); err == nil {
					t.Fatalf("a stream that fills %d bytes also decoded into %d", n, n-1)
				}
			}
		}
		enc := e.encode(nil, data)
		out := make([]byte, len(data))
		if err := lzDecode(out, enc); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip of %d bytes: %v", len(data), err)
		}
		z := lzStream{dst: make([]byte, len(data)), src: enc}
		for want := 0; !z.done; {
			want += 1 + int(n%64)
			if err := z.fill(want); err != nil || (z.d < want && !z.done) {
				t.Fatalf("resumed decode stopped at %d of %d bytes: %v", z.d, want, err)
			}
		}
		if z.d != len(data) || !bytes.Equal(z.dst, data) {
			t.Fatalf("resumed decode filled %d of %d bytes, equal %v", z.d, len(data), bytes.Equal(z.dst, data))
		}
	})
}
