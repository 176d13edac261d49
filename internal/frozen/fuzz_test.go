package frozen

import (
	"bytes"
	"encoding/binary"
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
