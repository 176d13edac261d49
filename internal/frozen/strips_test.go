package frozen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
)

// edgeSchema has every column kind, twice for the integers.
func edgeSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "i", Type: rel.TInt64},
		rel.Column{Name: "f", Type: rel.TFloat64},
		rel.Column{Name: "s", Type: rel.TString},
		rel.Column{Name: "j", Type: rel.TInt64},
		rel.Column{Name: "t", Type: rel.TString},
	)
}

// edgeRow is row k: integers at both ends of int64 and around zero,
// floats that only their bits tell apart (NaN, -0.0, the infinities),
// empty strings.
func edgeRow(k int) rel.Row {
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, -7}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, math.SmallestNonzeroFloat64}
	strs := []string{"", "x", "", "héllo", strings.Repeat("z", 40)}
	return rel.Row{rel.Int(ints[k%len(ints)]), rel.Float(floats[k%len(floats)]), rel.Str(strs[k%len(strs)]),
		rel.Int(int64(-k)), rel.Str(strs[(k+1)%len(strs)])}
}

// sameRow compares rows bit for bit, so NaN equals NaN and -0.0 is not 0.
func sameRow(a, b rel.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].S != b[i].S ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// checkGetMatchesScan fails unless Get of every row ScanLive streams
// returns that very row, bit for bit.
func checkGetMatchesScan(t *testing.T, s *Store) {
	t.Helper()
	var rids []rel.RowID
	var rows []rel.Row
	if err := s.ScanLive(func(rid rel.RowID, row rel.Row) bool {
		rids, rows = append(rids, rid), append(rows, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rids) == 0 {
		t.Fatal("ScanLive streamed no row")
	}
	for i, rid := range rids {
		if got, ok, err := s.Get(rid); err != nil || !ok || !sameRow(got, rows[i]) {
			t.Fatalf("Get(%d) = (%v, %v, %v), ScanLive read %v", rid, got, ok, err, rows[i])
		}
	}
}

// Values at the edges of every kind survive a version-3 round trip
// through every reader: Get, ScanBlocks with and without strings,
// ScanLive, ExtractLive, a merge that drops tombstones (leaving sparse ids
// behind) and VerifySegmentBytes.
func TestStripBlocksRoundTripEdgeValues(t *testing.T) {
	s := newStoreWith(t, edgeSchema())
	s.BlockRows = 16
	s.Fanout = 2
	const n = 100
	ids := make([]rel.RowID, n)
	rows := make([]rel.Row, n)
	for k := range ids {
		ids[k], rows[k] = rel.RowID(k+1), edgeRow(k)
	}
	// A row past blockTargetBytes gets a block of its own.
	rows[50][2] = rel.Str(strings.Repeat("o", 2*blockTargetBytes))
	mustFreeze(t, s, ids[:60], rows[:60])
	mustFreeze(t, s, ids[60:], rows[60:])
	g := s.segs[0]
	if b := g.blocks[g.blockFor(51)]; b.numRows != 1 {
		t.Fatalf("the oversize row shares a %d-row block", b.numRows)
	}
	check := func(stage string, live func(k int) bool) {
		t.Helper()
		for k, id := range ids {
			row, ok, err := s.Get(id)
			if err != nil || ok != live(k) || (ok && !sameRow(row, rows[k])) {
				t.Fatalf("%s: Get(%d) = (%v, %v, %v), want %v (live %v)", stage, id, row, ok, err, rows[k], live(k))
			}
		}
		var got []rel.RowID
		if err := s.ScanLive(func(rid rel.RowID, row rel.Row) bool {
			if !sameRow(row, rows[rid-1]) {
				t.Fatalf("%s: ScanLive row %d = %v, want %v", stage, rid, row, rows[rid-1])
			}
			got = append(got, rid)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var fixedOnly []rel.RowID
		if err := s.ScanBlocks(nil, false, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
			sel.ForEach(func(i int) bool {
				k := int(ids[i]) - 1
				for _, c := range []int{0, 1, 3} {
					if v := page.Col(i, c); v.I != rows[k][c].I || math.Float64bits(v.F) != math.Float64bits(rows[k][c].F) {
						t.Fatalf("%s: fixed-only scan row %d col %d = %v, want %v", stage, ids[i], c, v, rows[k][c])
					}
				}
				fixedOnly = append(fixedOnly, ids[i])
				return true
			})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(fixedOnly) {
			t.Fatalf("%s: ScanLive saw %v, fixed-only scan %v", stage, got, fixedOnly)
		}
		checkGetMatchesScan(t, s)
		for _, m := range s.Export() {
			data, err := s.bf.ReadBlock(m.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint32(data[4:]); v != segmentVersion {
				t.Fatalf("%s: segment has version %d", stage, v)
			}
			if err := VerifySegmentBytes(data, m); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
	}
	check("frozen", func(int) bool { return true })

	// Tombstone two of every three rows, then merge: the survivors' ids
	// are sparse, so the id strip widens.
	dead := func(k int) bool { return k%3 != 0 }
	for k, id := range ids {
		if dead(k) {
			if ok, err := s.MarkDeleted(id); err != nil || !ok {
				t.Fatalf("MarkDeleted(%d) = (%v, %v)", id, ok, err)
			}
		}
	}
	if merged, err := s.Compact(); err != nil || merged != 2 {
		t.Fatalf("Compact = (%d, %v), want both segments merged", merged, err)
	}
	check("merged", func(k int) bool { return !dead(k) })

	warmed, got, err := s.ExtractLive(1)
	if err != nil || len(warmed) == 0 || warmed[0] != 1 || !sameRow(got[0], rows[0]) {
		t.Fatalf("ExtractLive(1) = (%v, %v, %v)", warmed, got, err)
	}
}

// A point read returns strings of its own: they do not alias the pooled
// buffer its block's var stream was decoded into, so rows kept from 1,000
// reads are intact after 2,000 more reads of other blocks have reused that
// buffer. A delete finds its row in the id strip and decodes nothing.
func TestGetStringsAreTheirOwn(t *testing.T) {
	const n = 20_000
	s := newWideStore(t)
	ids, rows := wideBatch(0, n)
	mustFreeze(t, s, ids, rows)
	r := rand.New(rand.NewSource(11))
	kept := make(map[rel.RowID]rel.Row)
	for len(kept) < 1000 {
		rid := rel.RowID(1 + r.Intn(n/2))
		row, ok, err := s.Get(rid)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = (%v, %v)", rid, ok, err)
		}
		kept[rid] = row
	}
	for i := 0; i < 2000; i++ {
		rid := rel.RowID(n/2 + 1 + r.Intn(n/2))
		if row, ok, err := s.Get(rid); err != nil || !ok || !row.Equal(rows[rid-1]) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
		}
	}
	for rid, row := range kept {
		if !row.Equal(rows[rid-1]) {
			t.Fatalf("row %d read earlier is now %v, want %v", rid, row, rows[rid-1])
		}
	}

	s.CacheBytes = 1 // every delete reads its block from the file
	before := Inflates()
	for rid := rel.RowID(1); rid <= n; rid += 97 {
		if ok, err := s.MarkDeleted(rid); err != nil || !ok {
			t.Fatalf("MarkDeleted(%d) = (%v, %v)", rid, ok, err)
		}
	}
	if got := Inflates() - before; got != 0 {
		t.Fatalf("deletes decoded %d var streams, want 0", got)
	}
}

// Point reads from several goroutines share cached stored blocks and the
// scratch pool, beside a scan and beside evictions from a cache a few
// blocks large, and each still reads its own row.
func TestConcurrentColdGets(t *testing.T) {
	const n, readers = 5000, 4
	s := newWideStore(t)
	ids, rows := wideBatch(0, n)
	mustFreeze(t, s, ids, rows)
	s.CacheBytes = 8 << 10 // a few blocks: loads insert and evict all the time
	var wg sync.WaitGroup
	errs := make(chan error, readers+1) // one per goroutine
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				rid := rel.RowID(1 + r.Intn(n))
				if row, ok, err := s.Get(rid); err != nil || !ok || !row.Equal(rows[rid-1]) {
					errs <- fmt.Errorf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := 0
		err := s.ScanLive(func(rid rel.RowID, row rel.Row) bool {
			seen++
			return row.Equal(rows[rid-1])
		})
		if err != nil || seen != n {
			errs <- fmt.Errorf("scan beside the reads saw %d of %d rows (%v)", seen, n, err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A block decoded without its strings keeps its fixed-width columns and
// panics on a string column; the LRU charges a cached block its stored
// bytes.
func TestStripBlockWithoutStrings(t *testing.T) {
	s := newWideStore(t)
	ids, rows := wideBatch(0, 200)
	mustFreeze(t, s, ids, rows)
	g := s.segs[0]
	b, err := s.readBlock(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.decode(s.schema, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.rows.Col(3, wideSeq); v.I != 3 {
		t.Fatalf("seq of row 3 = %v", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reading a string column of a page decoded without strings did not panic")
			}
		}()
		d.rows.Col(3, wideTag)
	}()
	if _, ok, err := s.Get(1); !ok || err != nil {
		t.Fatalf("Get(1) = (%v, %v)", ok, err)
	}
	if want := int64(g.blocks[0].compLen); s.cacheUsed != want {
		t.Fatalf("cached block charged %d B, want its %d stored bytes", s.cacheUsed, want)
	}
}

// stripSections names one offset inside every section of a version-3 or
// -4 block, walking it the way the decoder does.
func stripSections(t *testing.T, body []byte) map[string]int {
	t.Helper()
	end := len(body) - 4
	r := stripReader{b: body[:end]}
	pos := func() int { return end - len(r.b) }
	secs := map[string]int{"row count": 0, "column count": 4}
	r.take(6, "counts")
	n := int(binary.LittleEndian.Uint32(body))
	strip := func(name string) {
		secs[name+" base"], secs[name+" width"] = pos(), pos()+8
		if f := r.forStrip(n, name); f.width > 0 {
			secs[name+" words"] = pos() - 1
		}
	}
	strip("ids")
	ncols := int(binary.LittleEndian.Uint16(body[4:]))
	for c := 0; c < ncols; c++ {
		secs[fmt.Sprintf("col %d kind", c)] = pos()
		switch rel.Type(r.take(1, "kind")[0]) {
		case rel.TInt64:
			strip(fmt.Sprintf("col %d", c))
		case rel.TFloat64:
			secs[fmt.Sprintf("col %d words", c)] = pos()
			r.take(8*n, "floats")
		}
	}
	secs["var length"] = pos()
	r.take(4, "var length")
	secs["var stream start"], secs["var stream end"] = pos(), end-1
	secs["checksum"] = end
	if r.err != nil {
		t.Fatal(r.err)
	}
	return secs
}

// Every truncation of a version-4 block, and a flipped byte in any of
// its sections, fails decoding with an error — with or without a schema,
// with or without strings — and a flip the CRC is forged over never
// panics the decoder.
func TestStripBlockCorruption(t *testing.T) {
	sb := newSegmentBuilder(edgeSchema(), 0, 16)
	for k := 0; k < 16; k++ {
		if err := sb.add(rel.RowID(3*k+1), edgeRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	data, hlen, err := sb.finish()
	if err != nil {
		t.Fatal(err)
	}
	b := sb.blocks[0]
	body := data[hlen+int(b.compOff) : hlen+int(b.compOff+b.compLen)]
	schema := edgeSchema()
	decode := func(blk []byte) []error {
		var errs []error
		for _, mode := range []struct {
			schema *rel.Schema
			strs   bool
		}{{schema, true}, {schema, false}, {nil, true}} {
			_, err := decodeBlock(mode.schema, segmentVersion, blk, b.rawLen, mode.strs)
			errs = append(errs, err)
		}
		return errs
	}
	for _, err := range decode(body) {
		if err != nil {
			t.Fatalf("pristine block rejected: %v", err)
		}
	}
	for k := 0; k < len(body); k++ {
		for i, err := range decode(body[:k]) {
			if err == nil {
				t.Fatalf("block truncated to %d of %d bytes decoded (mode %d)", k, len(body), i)
			}
		}
	}
	secs := stripSections(t, body)
	if len(secs) < 20 {
		t.Fatalf("only %d sections found: %v", len(secs), secs)
	}
	le := binary.LittleEndian
	for name, off := range secs {
		for _, x := range []byte{0x01, 0x80, 0xFF} {
			bad := append([]byte(nil), body...)
			bad[off] ^= x
			for i, err := range decode(bad) {
				if err == nil {
					t.Fatalf("%s: byte %d ^ %#x decoded (mode %d)", name, off, x, i)
				}
			}
			// Forge the CRC: the decoder may accept the block, but must not panic.
			le.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], blockCRC))
			decode(bad)
		}
	}
}
