package frozen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// newBigStore freezes big rows [0, n) (row_id = seq + 1), in segments of
// at most 1<<16 rows.
func newBigStore(t testing.TB, n int) *Store {
	t.Helper()
	s := newWideStore(t)
	for lo := 0; lo < n; lo += 1 << 16 {
		hi := min(n, lo+1<<16)
		ids := make([]rel.RowID, hi-lo)
		rows := make([]rel.Row, hi-lo)
		for i := range ids {
			ids[i], rows[i] = rel.RowID(lo+i+1), bigRow(lo+i)
		}
		mustFreeze(t, s, ids, rows)
	}
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

// getAllocBytes returns the bytes each of gets uniform Gets over rids
// [1, n] of s allocates, and how many of them the pool a Get takes a var
// scratch buffer from spent building new ones: none, except under the
// race detector, where sync.Pool drops a share of Puts and each miss
// builds an 8 KiB buffer.
func getAllocBytes(t *testing.T, s *Store, n, gets int) (perGet, poolCost uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	rids := make([]rel.RowID, gets)
	for i := range rids {
		rids[i] = rel.RowID(1 + r.Intn(n))
	}
	s.Get(rids[0], nil) // primes the pool
	scratchBuilt, scratchCost := countNews(t, &varScratch)
	var failed error
	perGet = totalAlloc(func() {
		for _, rid := range rids {
			if row, ok, err := s.Get(rid, nil); err != nil || !ok || row[0].I != int64(rid) {
				failed = fmt.Errorf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
				return
			}
		}
	}) / uint64(gets)
	if failed != nil {
		t.Fatal(failed)
	}
	poolCost = uint64(scratchBuilt.Load()) * scratchCost / uint64(gets)
	return perGet, poolCost
}

// countNews wraps p's constructor until the test ends: it returns a count
// of the objects the wrapper builds and what building one costs.
func countNews(t *testing.T, p *sync.Pool) (built *atomic.Int64, cost uint64) {
	build := p.New
	cost = totalAlloc(func() { build() })
	built = new(atomic.Int64)
	p.New = func() any {
		built.Add(1)
		return build()
	}
	t.Cleanup(func() { p.New = build })
	return built, cost
}

// A cold point read that misses the block cache reads one stored block
// (~1.4 KB for `big` rows) and parses it, then reads its row in place:
// the row, its copied string and the cache entry. Nothing is unpacked,
// and the var stream decodes into pooled scratch.
func TestColdGetAllocBytes(t *testing.T) {
	const n, gets = 20_000, 1000
	s := newBigStore(t, n)
	s.CacheBytes = 1 // every Get reads its block from the file
	checkBlockSizes(t, s)
	perGet, poolCost := getAllocBytes(t, s, n, gets)
	t.Logf("%d B allocated per cold Get, %d B of it the pools' own", perGet, poolCost)
	if perGet > poolCost+2304 {
		t.Fatalf("a cold Get allocates %d B beyond the pool's %d B, want <= 2.25 KiB (one stored block and one row)", perGet-poolCost, poolCost)
	}
}

// A cold point read that hits the block cache allocates only the row it
// returns and that row's copied strings.
func TestColdGetCachedAllocBytes(t *testing.T) {
	const n, gets = 20_000, 1000
	s := newBigStore(t, n) // ~260 stored blocks: well inside DefaultCacheBytes
	for rid := 1; rid <= n; rid += 16 {
		if _, ok, err := s.Get(rel.RowID(rid), nil); !ok || err != nil {
			t.Fatalf("Get(%d) = (%v, %v)", rid, ok, err)
		}
	}
	before := s.Stats()
	perGet, poolCost := getAllocBytes(t, s, n, gets)
	if st := s.Stats(); st.CacheMisses != before.CacheMisses {
		t.Fatalf("%d cache misses once the cache held every block", st.CacheMisses-before.CacheMisses)
	}
	t.Logf("%d B allocated per cached cold Get, %d B of it the pool's own", perGet, poolCost)
	if perGet > poolCost+320 {
		t.Fatalf("a cached cold Get allocates %d B beyond the pool's %d B, want <= 320 B (a 5-value row and its 60-byte string)", perGet-poolCost, poolCost)
	}
}

// coldRange counts the rows of s whose seq lies in [lo, lo+span) the way
// the benchmark's range aggregate does: zone-pruned, filtered on the
// strips, no string read.
func coldRange(s *Store, lo, span int64) (int, error) {
	preds := between(wideSeq, rel.Int(lo), rel.Int(lo+span-1))
	count := 0
	var ferr error
	err := s.ScanBlocks(preds, false, func(_ []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		if ferr = page.FilterFixed(preds, sel); ferr != nil {
			return false
		}
		count += sel.Count()
		return true
	})
	if err == nil {
		err = ferr
	}
	return count, err
}

// A cold range aggregate reuses one set of buffers for every block it
// reads from the file — the stored bytes, the ids and the fixed strips —
// so what a 4096-row range (~55 blocks of `big` rows) allocates is a few
// hundred bytes of page headers per block, not the ~4.5 KB of buffers
// each block would take.
func TestColdRangeScanAllocBytes(t *testing.T) {
	const n, span, scans = 40_000, 4096, 50
	s := newBigStore(t, n)
	r := rand.New(rand.NewSource(3))
	var failed error
	perScan := totalAlloc(func() {
		for i := 0; i < scans; i++ {
			if count, err := coldRange(s, int64(r.Intn(n-span+1)), span); err != nil || count != span {
				failed = fmt.Errorf("range counted %d rows (%v), want %d", count, err, span)
				return
			}
		}
	}) / scans
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%d B allocated per %d-row cold range", perScan, span)
	if perScan > 32<<10 {
		t.Fatalf("a %d-row cold range allocates %d B, want <= 32 KiB", span, perScan)
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
		if row, ok, err := s.Get(id, nil); err != nil || !ok || !row.Equal(rows[i]) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", id, row, ok, err)
		}
	}
}

// A segment build allocates one matcher, not one per block: its 16 KiB
// hash table per block would add ~0.7 MB here.
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
	if alloc >= 1<<20 {
		t.Fatalf("building a %d-block segment allocated %d B, want < 1 MiB", len(sb.blocks), alloc)
	}
}

// `big` rows compress at least 4.8x, raw bytes to stored segment bytes:
// the LZ var stream gives up some of DEFLATE's 5.7x, and no more.
func TestBigRowsCompression(t *testing.T) {
	s := newBigStore(t, 1<<16)
	st := s.Stats()
	ratio := float64(st.RawBytes) / float64(st.FreezeBytes)
	t.Logf("%d raw bytes stored in %d (%.2fx), %d stored bytes per block", st.RawBytes, st.FreezeBytes, ratio, st.FreezeBytes/st.Blocks)
	if ratio < 4.8 {
		t.Fatalf("big rows compress %.2fx, want >= 4.8x", ratio)
	}
}

// testdata/parent512 is a store written once by the version-2 builder that
// cut a block every 512 rows: one segment of wideRow 0..2047 in four
// 512-row blocks, with its manifest. The directory records each block's row
// count and raw length, so it reads as it is; a merge rewrites it as a
// version-3 segment of blocks cut at blockTargetBytes.
func TestParent512BlocksReadAndMerge(t *testing.T) {
	s := openFixture(t, "testdata/parent512", wideSchema())
	for _, b := range s.segs[0].blocks {
		if b.numRows != 512 {
			t.Fatalf("fixture block holds %d rows, want the old 512", b.numRows)
		}
	}
	if len(s.segs[0].blocks) != 4 {
		t.Fatalf("fixture has %d blocks, want 4", len(s.segs[0].blocks))
	}
	readAll := func() {
		t.Helper()
		for i := 0; i < 2048; i++ {
			if row, ok, err := s.Get(rel.RowID(i+1), nil); err != nil || !ok || !row.Equal(wideRow(i)) {
				t.Fatalf("Get(%d) = (%v, %v, %v), want %v", i+1, row, ok, err, wideRow(i))
			}
		}
		if got := scanRows(t, s, nil, true); len(got) != 2048 {
			t.Fatalf("scan returned %d rows, want 2048", len(got))
		}
		checkGetMatchesScan(t, s)
	}
	readAll()
	verifySegments(t, s, 2)

	s.Fanout = 1 // one segment is a full level: one Compact merges it
	if n, err := s.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact = (%d, %v), want the one segment merged", n, err)
	}
	if st := s.Stats(); st.Segments != 1 || st.MaxLevel != 1 || st.Blocks <= 4 {
		t.Fatalf("after the merge: %+v", st)
	}
	checkBlockSizes(t, s)
	verifySegments(t, s, segmentVersion)
	readAll()
}

// openFixture opens the store checked in under dir (its block file and
// the manifest of its first table) over a copy of the block file, which a
// merge appends to.
func openFixture(t testing.TB, dir string, schema *rel.Schema) *Store {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "cold.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := os.ReadFile(filepath.Join(dir, "frozen.blocks"))
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
	t.Cleanup(func() { bf.Close() })
	s := NewStore(bf, schema)
	if err := s.Import(m.Tables[0].Segments); err != nil {
		t.Fatal(err)
	}
	return s
}

// verifySegments fails unless every segment of s has the version and
// passes VerifySegmentBytes.
func verifySegments(t *testing.T, s *Store, version uint32) {
	t.Helper()
	for _, meta := range s.Export() {
		img, err := s.bf.ReadBlock(meta.Ref)
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

// openV3Edge opens testdata/v3edge, a store written once by the version-3
// (DEFLATE) writer: edgeRow(0..599) under row ids 1..600, row 251's first
// string widened to 2 x blockTargetBytes so that it fills a block of its
// own, frozen as two segments (ids 1-400 and 401-600), with rows 7 and 450
// deleted.
func openV3Edge(t testing.TB) *Store {
	return openFixture(t, "testdata/v3edge", edgeSchema())
}

// v3EdgeRow is what testdata/v3edge holds under rid, and whether it is live.
func v3EdgeRow(rid rel.RowID) (rel.Row, bool) {
	row := edgeRow(int(rid) - 1)
	if rid == 251 {
		row[2] = rel.Str(strings.Repeat("o", 2*blockTargetBytes))
	}
	return row, rid != 7 && rid != 450
}

// Version-3 segments read as they are — by Get, and by scans with and
// without strings — and a merge rewrites them as one version-4 segment
// holding the very same rows.
func TestV3SegmentsReadAndMerge(t *testing.T) {
	const n = 600
	s := openV3Edge(t)
	check := func(version uint32) {
		t.Helper()
		verifySegments(t, s, version)
		for rid := rel.RowID(1); rid <= n; rid++ {
			want, live := v3EdgeRow(rid)
			if row, ok, err := s.Get(rid, nil); err != nil || ok != live || (ok && !sameRow(row, want)) {
				t.Fatalf("v%d: Get(%d) = (%v, %v, %v), want %v (live %v)", version, rid, row, ok, err, want, live)
			}
		}
		seen := 0
		if err := s.ScanLive(func(rid rel.RowID, row rel.Row) bool {
			if want, live := v3EdgeRow(rid); !live || !sameRow(row, want) {
				t.Fatalf("v%d: ScanLive row %d = %v, want %v (live %v)", version, rid, row, want, live)
			}
			seen++
			return true
		}); err != nil || seen != n-2 {
			t.Fatalf("v%d: ScanLive saw %d rows (%v), want %d", version, seen, err, n-2)
		}
		seen = 0
		if err := s.ScanBlocks(nil, false, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
			sel.ForEach(func(i int) bool {
				want, _ := v3EdgeRow(ids[i])
				for _, c := range []int{0, 1, 3} {
					if !sameRow(rel.Row{page.Col(i, c)}, rel.Row{want[c]}) {
						t.Fatalf("v%d: fixed-only scan row %d col %d = %v, want %v", version, ids[i], c, page.Col(i, c), want[c])
					}
				}
				seen++
				return true
			})
			return true
		}); err != nil || seen != n-2 {
			t.Fatalf("v%d: fixed-only scan saw %d rows (%v), want %d", version, seen, err, n-2)
		}
	}
	if st := s.Stats(); st.Segments != 2 {
		t.Fatalf("fixture has %d segments, want 2", st.Segments)
	}
	check(3)
	s.Fanout = 2
	if merged, err := s.Compact(); err != nil || merged != 2 {
		t.Fatalf("Compact = (%d, %v), want both segments merged", merged, err)
	}
	check(segmentVersion)
}

// BenchmarkColdGet is a cold point read of a uniform row. miss: every
// read fetches its block from the file (20k rows, a 1-byte cache).
// cached: cold_read's shape, 300k rows behind the default cache, which
// holds most of their ~3,900 stored blocks; it reports the hit ratio.
// hit: the same rows behind a cache that holds every block, so every read
// is a hit.
func BenchmarkColdGet(b *testing.B) {
	run := func(b *testing.B, s *Store, n int) {
		r := rand.New(rand.NewSource(1))
		before := s.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := s.Get(rel.RowID(1+r.Intn(n)), nil); !ok || err != nil {
				b.Fatalf("Get = (%v, %v)", ok, err)
			}
		}
		b.StopTimer()
		st := s.Stats()
		hits, misses := st.CacheHits-before.CacheHits, st.CacheMisses-before.CacheMisses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
	}
	miss := newBigStore(b, 20_000)
	miss.CacheBytes = 1
	b.Run("miss", func(b *testing.B) { run(b, miss, 20_000) })

	const n = 300_000
	cached := newBigStore(b, n)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < n/10; i++ { // warm the cache to its steady state
		cached.Get(rel.RowID(1+r.Intn(n)), nil)
	}
	b.Run("cached", func(b *testing.B) { run(b, cached, n) })

	cached.CacheBytes = 1 << 30
	for _, g := range cached.segs {
		for _, blk := range g.blocks {
			cached.Get(blk.firstRID, nil)
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, cached, n) })
}

// BenchmarkColdRangeScan4096 is the benchmark's range aggregate over
// frozen rows: 4096 consecutive seq values, zone-pruned to the blocks they
// overlap, filtered on the strips and counted. It reads no string column,
// so no block's var stream is decoded.
func BenchmarkColdRangeScan4096(b *testing.B) {
	const n, span = 40_000, 4096
	s := newBigStore(b, n)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count, err := coldRange(s, int64(r.Intn(n-span+1)), span)
		if err != nil || count != span {
			b.Fatalf("range counted %d rows (%v), want %d", count, err, span)
		}
	}
}
