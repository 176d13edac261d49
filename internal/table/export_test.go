package table

import (
	"bytes"
	"fmt"
	"testing"

	"phoebedb/internal/buffer"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

func TestAppendAt(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	appendN(t, tb, 3)
	// Gap: rid 4 and 5 were burned by aborted transactions.
	if err := tb.AppendAt(6, mkRow(6)); err != nil {
		t.Fatal(err)
	}
	if tb.NextRowID() != 6 {
		t.Fatalf("NextRowID = %d", tb.NextRowID())
	}
	if err := tb.WithRow(6, false, nil, func(h Handle) error {
		if h.Col(0).I != 6 {
			return fmt.Errorf("wrong row: %v", h.Row())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Burned rids are absent.
	if err := tb.WithRow(4, false, nil, func(Handle) error { return nil }); err != ErrNotFound {
		t.Fatalf("gap rid err = %v", err)
	}
	// Regression: AppendAt must reject non-monotonic rids.
	if err := tb.AppendAt(6, mkRow(6)); err == nil {
		t.Fatal("duplicate rid accepted")
	}
	if err := tb.AppendAt(2, mkRow(2)); err == nil {
		t.Fatal("backwards rid accepted")
	}
	// Normal appends continue after the explicit rid.
	rid, err := tb.Append(mkRow(7), 0, nil, nil)
	if err != nil || rid != 7 {
		t.Fatalf("append after AppendAt = (%d, %v)", rid, err)
	}
}

// exportAll runs a whole export, copying each image out of the buffer the
// export reuses.
func exportAll(tb *Table) (images []PageImage, nextRID, maxFrozen uint64, err error) {
	x := tb.ExportImages()
	for i := 0; i < x.Len(); i++ {
		im, err := x.Next(nil)
		if err != nil {
			return nil, 0, 0, err
		}
		images = append(images, PageImage{FirstRID: im.FirstRID, Img: append([]byte(nil), im.Img...)})
	}
	return images, x.NextRowID, x.MaxFrozenRID, nil
}

// A checkpoint's pass over a table of many pages allocates the same few
// objects whatever the page count — the export and one image buffer — and
// each image is the bytes the page serializes to.
func TestAllocExportImages(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	for i := 1000; i < 1000+4*256; i++ { // rows of one width: pages of one size
		if _, err := tb.Append(mkRow(i), 0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumPages() < 256 {
		t.Fatalf("%d pages, want >= 256", tb.NumPages())
	}
	want := make([][]byte, 0, tb.NumPages())
	for _, pg := range tb.dir {
		want = append(want, pg.swip.Ptr().serialize(nil))
	}
	x := tb.ExportImages()
	for i := 0; i < x.Len(); i++ {
		im, err := x.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(im.Img, want[i]) {
			t.Fatalf("page %d: image differs from the page's serialization", i)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		x := tb.ExportImages()
		for i := 0; i < x.Len(); i++ {
			if _, err := x.Next(nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 3 {
		t.Errorf("exporting %d pages allocates %.0f objects, want <= 3", tb.NumPages(), allocs)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	pool := buffer.New(1, 1<<20)
	src := newTestTable(t, 4, pool)
	rids := appendN(t, src, 11)
	// Tombstone one row; its flag must survive the round trip.
	src.WithRow(rids[2], true, nil, func(h Handle) error { h.SetDeleted(true); return nil })

	images, nextRID, maxFrozen, err := exportAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != src.NumPages() {
		t.Fatalf("exported %d images for %d pages", len(images), src.NumPages())
	}
	if nextRID != 11 || maxFrozen != 0 {
		t.Fatalf("metadata = (%d, %d)", nextRID, maxFrozen)
	}

	dst := newTestTable(t, 4, nil)
	if err := dst.ImportImages(images, nextRID, maxFrozen); err != nil {
		t.Fatal(err)
	}
	if dst.NextRowID() != 11 {
		t.Fatalf("imported NextRowID = %d", dst.NextRowID())
	}
	for i, rid := range rids {
		err := dst.WithRow(rid, false, nil, func(h Handle) error {
			if !h.Row().Equal(mkRow(i)) {
				return fmt.Errorf("row %d mismatch", i)
			}
			if h.Deleted() != (i == 2) {
				return fmt.Errorf("row %d tombstone flag wrong", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Appends continue seamlessly.
	rid, err := dst.Append(mkRow(99), 0, nil, nil)
	if err != nil || rid != 12 {
		t.Fatalf("post-import append = (%d, %v)", rid, err)
	}
}

func TestExportImportColdPages(t *testing.T) {
	pool := buffer.New(1, 1)
	src := newTestTable(t, 4, pool)
	rids := appendN(t, src, 12)
	// Evict everything evictable, then export: cold pages must be loaded.
	for i := 0; i < 6; i++ {
		for _, pg := range src.dir {
			pg.hotness.Store(0)
		}
		pool.Maintain(0)
	}
	images, nextRID, maxFrozen, err := exportAll(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := newTestTable(t, 4, nil)
	if err := dst.ImportImages(images, nextRID, maxFrozen); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if err := dst.WithRow(rid, false, nil, func(h Handle) error {
			if h.Col(0).I != int64(i) {
				return fmt.Errorf("row %d corrupted", i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestImportRequiresEmptyTable(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	appendN(t, tb, 1)
	if err := tb.ImportImages(nil, 5, 0); err == nil {
		t.Fatal("import into non-empty table accepted")
	}
}

func TestImportEmptyImagesRestoresTail(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	if err := tb.ImportImages(nil, 7, 7); err != nil {
		t.Fatal(err)
	}
	// All rows were frozen at checkpoint: appends still work.
	rid, err := tb.Append(mkRow(8), 0, nil, nil)
	if err != nil || rid != 8 {
		t.Fatalf("append = (%d, %v)", rid, err)
	}
	if tb.MaxFrozenRowID() != 7 {
		t.Fatalf("frontier = %d", tb.MaxFrozenRowID())
	}
}

func TestInsertAtOutOfOrder(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	// Inserts arrive in GSN order, not rid order: 1, 2, 6, then 4.
	for _, rid := range []int{1, 2, 6, 4} {
		if err := tb.InsertAt(rel.RowID(rid), mkRow(rid)); err != nil {
			t.Fatalf("InsertAt(%d): %v", rid, err)
		}
	}
	var got []rel.RowID
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool {
		got = append(got, rid)
		if row[0].I != int64(rid) {
			t.Fatalf("rid %d has wrong row %v", rid, row)
		}
		return true
	})
	want := []rel.RowID{1, 2, 4, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if err := tb.InsertAt(4, mkRow(4)); err == nil {
		t.Fatal("duplicate InsertAt accepted")
	}
	// Appends continue past the highest rid.
	rid, err := tb.Append(mkRow(7), 0, nil, nil)
	if err != nil || rid != 7 {
		t.Fatalf("append = (%d,%v)", rid, err)
	}
}

func TestInsertAtSplitsFullPage(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	// Fill the first page's range [1,9) minus one: 1,2,4,5 fills cap 4...
	// use rids 1,2,4,5 then insert 3 -> page full -> split.
	for _, rid := range []int{1, 2, 4, 5} {
		if err := tb.InsertAt(rel.RowID(rid), mkRow(rid)); err != nil {
			t.Fatal(err)
		}
	}
	before := tb.NumPages()
	if err := tb.InsertAt(3, mkRow(3)); err != nil {
		t.Fatalf("mid-insert into full page: %v", err)
	}
	if tb.NumPages() <= before {
		t.Fatalf("no split happened (%d pages)", tb.NumPages())
	}
	var got []int64
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool {
		got = append(got, row[0].I)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]int64{1, 2, 3, 4, 5}) {
		t.Fatalf("scan after split = %v", got)
	}
	// Every row readable through point access too.
	for _, rid := range []rel.RowID{1, 2, 3, 4, 5} {
		if err := tb.WithRow(rid, false, nil, func(h Handle) error { return nil }); err != nil {
			t.Fatalf("row %d unreachable after split: %v", rid, err)
		}
	}
}

func TestInsertAtManyRandomOrder(t *testing.T) {
	tb := newTestTable(t, 4, nil)
	rng := []int{13, 2, 40, 7, 1, 39, 22, 15, 8, 30, 3, 25, 18, 5, 11, 37, 20, 28, 33, 9}
	for _, rid := range rng {
		if err := tb.InsertAt(rel.RowID(rid), mkRow(rid)); err != nil {
			t.Fatalf("InsertAt(%d): %v", rid, err)
		}
	}
	count := 0
	var prev rel.RowID
	tb.Scan(nil, func(rid rel.RowID, row rel.Row, h *Handle) bool {
		if rid <= prev {
			t.Fatalf("scan out of order at %d", rid)
		}
		prev = rid
		count++
		return true
	})
	if count != len(rng) {
		t.Fatalf("count = %d, want %d", count, len(rng))
	}
}

func TestEvictionFailureKeepsPageResident(t *testing.T) {
	// Failure injection: if the data page file rejects the write, the
	// page must be rescued (stay resident and readable), not lost.
	pf, err := storage.OpenPageFile(t.TempDir()+"/p.pages", 16*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := New(1, testSchema(), 4, pf, nil)
	var rids []rel.RowID
	for i := 0; i < 8; i++ {
		rid, _ := tb.Append(mkRow(i), 0, nil, nil)
		rids = append(rids, rid)
	}
	pf.Close() // device gone
	pg := tb.dir[0]
	pg.hotness.Store(0)
	if !pg.StartCooling() {
		t.Fatal("cooling failed")
	}
	if _, ok := pg.EvictIfCooling(); ok {
		t.Fatal("eviction succeeded on closed file")
	}
	if !pg.Resident() {
		t.Fatal("page lost after failed eviction")
	}
	if err := tb.WithRow(rids[0], false, nil, func(h Handle) error { return nil }); err != nil {
		t.Fatalf("row unreadable after failed eviction: %v", err)
	}
}
