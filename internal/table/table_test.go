package table

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"phoebedb/internal/buffer"
	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
	"phoebedb/internal/undo"
)

func testSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "s", Type: rel.TString},
	)
}

func mkRow(i int) rel.Row { return rel.Row{rel.Int(int64(i)), rel.Str(fmt.Sprintf("row-%d", i))} }

func newTestTable(t *testing.T, pageCap int, pool *buffer.Pool) *Table {
	t.Helper()
	pf, err := storage.OpenPageFile(filepath.Join(t.TempDir(), "data.pages"), 16*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return New(1, testSchema(), pageCap, pf, pool)
}

func appendN(t *testing.T, tb *Table, n int) []rel.RowID {
	t.Helper()
	rids := make([]rel.RowID, n)
	for i := 0; i < n; i++ {
		rid, err := tb.Append(mkRow(i), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return rids
}

func TestAppendAssignsMonotonicRowIDs(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rids := appendN(t, tb, 10)
	for i, rid := range rids {
		if i > 0 && rid <= rids[i-1] {
			t.Fatalf("row_ids not monotonic: %v", rids)
		}
	}
	if tb.NumPages() != 3 { // 4+4+2
		t.Fatalf("NumPages = %d", tb.NumPages())
	}
	if tb.NextRowID() != 10 {
		t.Fatalf("NextRowID = %d", tb.NextRowID())
	}
}

func TestWithRowReadsBack(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rids := appendN(t, tb, 10)
	for i, rid := range rids {
		err := tb.WithRow(rid, false, nil, func(h Handle) error {
			if !h.Row().Equal(mkRow(i)) {
				t.Fatalf("row %d mismatch", i)
			}
			if h.Deleted() {
				t.Fatal("fresh row tombstoned")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.WithRow(9999, false, nil, func(Handle) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing row err = %v", err)
	}
}

func TestWithRowExclusiveUpdate(t *testing.T) {
	tb := newTestTable(t, 8, nil)
	rids := appendN(t, tb, 3)
	err := tb.WithRow(rids[1], true, nil, func(h Handle) error {
		h.SetCol(1, rel.Str("updated"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.WithRow(rids[1], false, nil, func(h Handle) error {
		if h.Col(1).S != "updated" {
			t.Fatalf("update lost: %v", h.Col(1))
		}
		return nil
	})
}

func TestAppendCallbackErrorRollsBack(t *testing.T) {
	tb := newTestTable(t, 8, nil)
	appendN(t, tb, 2)
	boom := errors.New("boom")
	_, err := tb.Append(mkRow(99), 0, nil, func(h Handle) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	count := 0
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool { count++; return true })
	if count != 2 {
		t.Fatalf("scan count = %d after rolled-back append", count)
	}
}

func TestRemoveRowAndScanSkipsTombstones(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rids := appendN(t, tb, 6)
	// Tombstone one row, physically remove another.
	tb.WithRow(rids[1], true, nil, func(h Handle) error { h.SetDeleted(true); return nil })
	if err := tb.RemoveRow(rids[3], nil); err != nil {
		t.Fatal(err)
	}
	var seen []rel.RowID
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool {
		seen = append(seen, rid)
		return true
	})
	want := []rel.RowID{rids[0], rids[2], rids[4], rids[5]}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", seen, want)
	}
	if err := tb.WithRow(rids[3], false, nil, func(Handle) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed row err = %v", err)
	}
}

func TestEvictAndReload(t *testing.T) {
	pool := buffer.New(1, 1) // 1-byte budget: everything evicts
	tb := newTestTable(t, 4, pool)
	rids := appendN(t, tb, 12)
	// Cool + evict everything evictable (tail stays).
	for i := 0; i < 4; i++ {
		for _, pg := range tb.dir {
			pg.hotness.Store(0)
		}
		pool.Maintain(0)
	}
	cold := 0
	for _, pg := range tb.dir {
		if !pg.Resident() {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("no pages evicted under 1-byte budget")
	}
	// Every row must still read back (cold pages reload).
	for i, rid := range rids {
		err := tb.WithRow(rid, false, nil, func(h Handle) error {
			if !h.Row().Equal(mkRow(i)) {
				return fmt.Errorf("row %d mismatch after reload", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwinPinsPage(t *testing.T) {
	pool := buffer.New(1, 1)
	tb := newTestTable(t, 4, pool)
	rids := appendN(t, tb, 8)
	// Give the first page a twin table.
	tb.WithRow(rids[0], true, nil, func(h Handle) error {
		tt := h.TwinTable(true)
		m := undo.NewTxnMeta(clock.MakeXID(1))
		tt.Push(h.RID, undo.NewArena(0).New(m, 1, h.RID, undo.OpUpdate, nil, nil))
		return nil
	})
	for i := 0; i < 4; i++ {
		for _, pg := range tb.dir {
			pg.hotness.Store(0)
		}
		pool.Maintain(0)
	}
	if !tb.dir[0].Resident() {
		t.Fatal("page with twin table was evicted")
	}
}

// writeTwin pushes an uncommitted update record for rid into its page's
// twin table, as a writer does.
func writeTwin(t *testing.T, tb *Table, arena *undo.Arena, rid rel.RowID, ts uint64) (*undo.TxnMeta, *undo.Record) {
	t.Helper()
	m := undo.NewTxnMeta(clock.MakeXID(ts))
	var rec *undo.Record
	err := tb.WithRow(rid, true, nil, func(h Handle) error {
		rec = arena.New(m, 1, h.RID, undo.OpUpdate, nil, nil)
		h.TwinTable(true).Push(h.RID, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// commitReclaim commits the writer at cts and reclaims its records.
func commitReclaim(arena *undo.Arena, m *undo.TxnMeta, recs []*undo.Record, cts uint64) {
	m.Commit(cts)
	for _, r := range recs {
		r.SetETS(cts)
	}
	arena.Reclaim(cts+1, nil)
}

// TestDropCollectibleTwins: GC empties a collectible twin table in place
// and the page leaves the sweep's set. The page's next write reuses the
// table; an emptied table pins nothing, so the page can be frozen or
// evicted, and either drops the table.
func TestDropCollectibleTwins(t *testing.T) {
	pool := buffer.New(1, 1) // 1-byte budget: everything unpinned evicts
	tb := newTestTable(t, 4, pool)
	rids := appendN(t, tb, 12) // pages [0-3][4-7][8-11(open)]
	arena := undo.NewArena(0)
	listed := func() int {
		tb.twinMu.Lock()
		defer tb.twinMu.Unlock()
		return len(tb.twinPages)
	}

	m, rec := writeTwin(t, tb, arena, rids[0], 1)
	if n := tb.DropCollectibleTwins(^uint64(0)); n != 0 {
		t.Fatal("collected twin with live chain")
	}
	commitReclaim(arena, m, []*undo.Record{rec}, 2)
	if n := tb.DropCollectibleTwins(^uint64(0)); n != 1 {
		t.Fatalf("collected %d twins, want 1", n)
	}
	pg0 := tb.dir[0]
	tt := pg0.Twin
	if tt == nil || tt.Len() != 0 || tt.MaxWriterXID != 0 {
		t.Fatalf("twin not emptied in place: %+v", tt)
	}
	if pg0.twinListed || listed() != 0 {
		t.Fatal("collected page still in the sweep's set")
	}

	// The next write reuses the table and lists the page again.
	m, rec = writeTwin(t, tb, arena, rids[1], 3)
	if pg0.Twin != tt || tt.Len() != 1 || !pg0.twinListed || listed() != 1 {
		t.Fatal("second write did not reuse the emptied table")
	}
	commitReclaim(arena, m, []*undo.Record{rec}, 4)
	m, rec = writeTwin(t, tb, arena, rids[5], 5)
	commitReclaim(arena, m, []*undo.Record{rec}, 6)
	if n := tb.DropCollectibleTwins(^uint64(0)); n != 2 {
		t.Fatalf("collected %d twins, want 2", n)
	}
	pg1 := tb.dir[1]
	if pg0.Twin.Len() != 0 || pg1.Twin == nil || pg1.Twin.Len() != 0 {
		t.Fatal("twins not emptied")
	}

	// Emptied tables pin nothing: the first page freezes, the second
	// evicts, and each drops its table.
	for _, pg := range tb.dir {
		pg.hotness.Store(0)
	}
	cands, err := tb.DetachFrozenPrefix(1, 0, nil)
	if err != nil || len(cands) != 1 {
		t.Fatalf("froze %d pages (%v), want the emptied one", len(cands), err)
	}
	if pg0.Twin != nil {
		t.Fatal("frozen page kept its twin table")
	}
	for i := 0; i < 4; i++ {
		pg1.hotness.Store(0)
		pool.Maintain(0)
	}
	if pg1.Resident() {
		t.Fatal("page with an emptied twin table was not evicted")
	}
	if pg1.Twin != nil {
		t.Fatal("evicted page kept its twin table")
	}
	if listed() != 0 {
		t.Fatal("sweep's set not empty")
	}
}

// TestDropTwinGrownByBulk: a twin table a bulk transaction grew past
// keptTwinEntries is dropped, not emptied, so a loaded page does not keep
// its grown map; a page written a few rows at a time keeps its table.
func TestDropTwinGrownByBulk(t *testing.T) {
	tb := newTestTable(t, 32, nil)
	rids := appendN(t, tb, 64) // pages [0-31][32-63(open)]
	arena := undo.NewArena(0)
	m := undo.NewTxnMeta(clock.MakeXID(1))
	var recs []*undo.Record
	write := func(rid rel.RowID) {
		tb.WithRow(rid, true, nil, func(h Handle) error {
			rec := arena.New(m, 1, h.RID, undo.OpUpdate, nil, nil)
			h.TwinTable(true).Push(h.RID, rec)
			recs = append(recs, rec)
			return nil
		})
	}
	for _, rid := range rids[:keptTwinEntries+1] {
		write(rid)
	}
	for _, rid := range rids[32 : 32+keptTwinEntries] {
		write(rid)
	}
	commitReclaim(arena, m, recs, 2)
	if n := tb.DropCollectibleTwins(^uint64(0)); n != 2 {
		t.Fatalf("collected %d twins, want 2", n)
	}
	if tb.dir[0].Twin != nil {
		t.Fatalf("table grown to %d entries was kept", keptTwinEntries+1)
	}
	if tt := tb.dir[1].Twin; tt == nil || tt.Len() != 0 {
		t.Fatalf("table of %d entries was not kept empty", keptTwinEntries)
	}
}

func TestDetachFrozenPrefix(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rids := appendN(t, tb, 10) // pages: [1-4][5-8][9-10(tail)]
	for _, pg := range tb.dir {
		pg.hotness.Store(0)
	}
	cands, err := tb.DetachFrozenPrefix(10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("froze %d pages, want 2 (tail protected)", len(cands))
	}
	if tb.MaxFrozenRowID() != rids[7] {
		t.Fatalf("frontier = %d, want %d", tb.MaxFrozenRowID(), rids[7])
	}
	// Frozen rows report ErrFrozen; unfrozen remain readable.
	if err := tb.WithRow(rids[0], false, nil, func(Handle) error { return nil }); !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen row err = %v", err)
	}
	if err := tb.WithRow(rids[9], false, nil, func(Handle) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Candidates carry the data in row_id order.
	if cands[0].FirstRID != rids[0] || cands[0].Payload.IDs[0] != rids[0] {
		t.Fatal("candidate payload wrong")
	}
}

func TestDetachFrozenPrefixStopsAtHotOrTombstoned(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rids := appendN(t, tb, 12)
	// Hot first page blocks freezing entirely.
	if cands, _ := tb.DetachFrozenPrefix(10, 0, nil); len(cands) != 0 {
		t.Fatalf("froze %d pages despite hot prefix", len(cands))
	}
	for _, pg := range tb.dir {
		pg.hotness.Store(0)
	}
	// Tombstone in the second page: only the first page freezes.
	tb.WithRow(rids[5], true, nil, func(h Handle) error { h.SetDeleted(true); return nil })
	tb.dir[1].hotness.Store(0)
	cands, _ := tb.DetachFrozenPrefix(10, 0, nil)
	if len(cands) != 1 {
		t.Fatalf("froze %d pages, want 1 (tombstone blocks)", len(cands))
	}
}

// A lane that went idle does not hold the freeze back: its open page at
// the front of the directory, once cold enough, is sealed and frozen with
// the pages behind it, and the lane's next insert opens a fresh chunk. A
// lane whose page is too hot, or that is appending, keeps its page open.
func TestDetachFrozenPrefixSealsIdleLane(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	tb.SetInsertLanes(2)
	appendOn := func(lane, n int) (last rel.RowID) {
		t.Helper()
		for i := 0; i < n; i++ {
			rid, err := tb.Append(mkRow(i), lane, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			last = rid
		}
		return last
	}
	cool := func() {
		for _, pg := range tb.dir {
			pg.hotness.Store(0)
		}
	}
	appendOn(0, 2) // lane 0: [1-4] open, then idle
	appendOn(1, 9) // lane 1: [5-8] [9-12] sealed, [13-16] open
	cool()
	tb.dir[0].hotness.Store(1)
	if cands, _ := tb.DetachFrozenPrefix(10, 0, nil); len(cands) != 0 || !tb.dir[0].open.Load() {
		t.Fatalf("froze %d pages behind a hot lane page", len(cands))
	}
	cool()
	cands, err := tb.DetachFrozenPrefix(10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 || cands[0].FirstRID != 1 {
		t.Fatalf("froze %d pages, want the idle lane's and the 2 behind it", len(cands))
	}
	if rid := appendOn(0, 1); rid != 17 {
		t.Fatalf("idle lane's next insert got row_id %d, want 17 (a fresh chunk)", rid)
	}
	// Lane 1's page [13-16] is now at the front, lane 0's [17-20] behind it.
	cool()
	tb.lanes[1].mu.Lock() // mid-append
	cands, _ = tb.DetachFrozenPrefix(10, 0, nil)
	tb.lanes[1].mu.Unlock()
	if len(cands) != 0 {
		t.Fatalf("froze %d pages at an appending lane's page", len(cands))
	}
	if cands, _ = tb.DetachFrozenPrefix(10, 0, nil); len(cands) != 1 || cands[0].FirstRID != 13 {
		t.Fatalf("froze %d pages, want lane 1's idle page", len(cands))
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	tb := newTestTable(t, 16, nil)
	const writers = 4
	const per = 500
	var mu sync.Mutex
	all := map[rel.RowID]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rid, err := tb.Append(mkRow(i), w, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if all[rid] {
					t.Errorf("duplicate rid %d", rid)
				}
				all[rid] = true
				mu.Unlock()
				// Read own write back.
				if err := tb.WithRow(rid, false, nil, func(h Handle) error {
					if h.Col(0).I != int64(i) {
						return fmt.Errorf("read own write failed")
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool { count++; return true })
	if count != writers*per {
		t.Fatalf("scan count = %d, want %d", count, writers*per)
	}
}

func TestPayloadSerializeRoundTrip(t *testing.T) {
	pl := &Payload{Rows: nil}
	_ = pl
	tb := newTestTable(t, 8, nil)
	appendN(t, tb, 5)
	tb.WithRow(2, true, nil, func(h Handle) error { h.SetDeleted(true); return nil })
	src := tb.dir[0].swip.Ptr()
	img := src.serialize(nil)
	got, err := deserializePayload(testSchema(), 8, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 5 || got.IDs[2] != 3 || !got.Deleted[1] == got.Deleted[1] {
		t.Fatalf("ids = %v", got.IDs)
	}
	for i := range got.IDs {
		if !got.Rows.Row(i).Equal(src.Rows.Row(i)) {
			t.Fatalf("row %d mismatch", i)
		}
		if got.Deleted[i] != src.Deleted[i] {
			t.Fatalf("deleted flag %d mismatch", i)
		}
	}
	if _, err := deserializePayload(testSchema(), 8, img[:3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func BenchmarkAppend(b *testing.B) {
	pf, _ := storage.OpenPageFile(filepath.Join(b.TempDir(), "d.pages"), 16*1024, nil)
	defer pf.Close()
	tb := New(1, testSchema(), 128, pf, nil)
	row := rel.Row{rel.Int(1), rel.Str("bench-row")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Append(row, 0, nil, nil)
	}
}

func BenchmarkPointRead(b *testing.B) {
	pf, _ := storage.OpenPageFile(filepath.Join(b.TempDir(), "d.pages"), 16*1024, nil)
	defer pf.Close()
	tb := New(1, testSchema(), 128, pf, nil)
	for i := 0; i < 10000; i++ {
		tb.Append(rel.Row{rel.Int(int64(i)), rel.Str("x")}, 0, nil, nil)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tb.WithRow(rel.RowID(i%10000+1), false, nil, func(h Handle) error { return nil })
			i++
		}
	})
}
