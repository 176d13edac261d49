package core

import (
	"testing"

	"phoebedb/internal/rel"
)

// The allocation-free read path: steady-state point reads and index scans
// must not allocate. These gates guard the scratch-reuse machinery (Tx
// rowBuf/scan frames/keyBuf, value Handle callbacks, in-place visibility)
// against regressions — a single escaped value shows up as a fractional
// alloc count here.

// setupReadAlloc loads rows, commits them, and advances the watermark so
// steady-state reads take the fast path.
func setupReadAlloc(t *testing.T, e *Engine, n int) []rel.RowID {
	t.Helper()
	setupAccounts(t, e)
	tx := begin(e, 0)
	rids := make([]rel.RowID, n)
	for i := 0; i < n; i++ {
		rid, err := tx.Insert("accounts", acct(i+1, "owner", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Mgr.RefreshWatermark()
	return rids
}

func TestPointReadAllocFree(t *testing.T) {
	e := openTestEngine(t, Config{})
	rids := setupReadAlloc(t, e, 64)

	tx := begin(e, 1)
	defer tx.Rollback()
	// Warm the scratch buffers and table-lock entry.
	if _, ok, err := tx.Get("accounts", rids[0]); err != nil || !ok {
		t.Fatalf("warmup read: ok=%v err=%v", ok, err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		rid := rids[i%len(rids)]
		i++
		row, ok, err := tx.Get("accounts", rid)
		if err != nil || !ok {
			t.Fatalf("read %d: ok=%v err=%v", rid, ok, err)
		}
		if row[0].I < 1 {
			t.Fatalf("bad row %v", row)
		}
	})
	if allocs != 0 {
		t.Fatalf("point read allocates %.2f per op, want 0", allocs)
	}
}

func TestUniqueProbeAllocFree(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupReadAlloc(t, e, 64)

	tx := begin(e, 1)
	defer tx.Rollback()
	key := []rel.Value{rel.Int(1)}
	if err := tx.ScanIndex("accounts", "accounts_pk", key, func(rel.RowID, rel.Row) bool { return false }); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		key[0] = rel.Int(int64(i%64) + 1)
		i++
		found := false
		err := tx.ScanIndex("accounts", "accounts_pk", key, func(rid rel.RowID, row rel.Row) bool {
			found = row[0].I >= 1
			return false
		})
		if err != nil || !found {
			t.Fatalf("probe: found=%v err=%v", found, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unique index probe allocates %.2f per op, want 0", allocs)
	}
}

func TestIndexScanSteadyStateAllocs(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupReadAlloc(t, e, 256)

	tx := begin(e, 1)
	defer tx.Rollback()
	key := []rel.Value{rel.Str("owner")}
	scan := func() int {
		n := 0
		if err := tx.ScanIndex("accounts", "accounts_owner", key, func(rel.RowID, rel.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := scan(); got != 256 {
		t.Fatalf("scan saw %d rows, want 256", got)
	}
	// Steady state: per-row cost must be allocation-free. The scan itself
	// may keep a small constant overhead (B-Tree leaf snapshots), so gate
	// on per-row allocations staying well below one.
	allocs := testing.AllocsPerRun(50, func() { scan() })
	perRow := allocs / 256
	if perRow >= 0.05 {
		t.Fatalf("index scan allocates %.2f per run (%.3f per row), want ~0 per row", allocs, perRow)
	}
}

func TestTableScanSteadyStateAllocs(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupReadAlloc(t, e, 256)

	tx := begin(e, 1)
	defer tx.Rollback()
	scan := func() int {
		n := 0
		if err := tx.ScanTable("accounts", func(rel.RowID, rel.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := scan(); got != 256 {
		t.Fatalf("scan saw %d rows, want 256", got)
	}
	allocs := testing.AllocsPerRun(50, func() { scan() })
	perRow := allocs / 256
	if perRow >= 0.05 {
		t.Fatalf("table scan allocates %.2f per run (%.3f per row), want ~0 per row", allocs, perRow)
	}
}

// Once the watermark has passed every head, every visibility check is a
// watermark hit: the fast-path count equals the read count, on the point
// path and on the scan loop, and nothing walks a chain.
func TestWatermarkFastPathServesEveryRead(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 16})
	rids := setupReadAlloc(t, e, 64)
	// A second committed version per row, so every slot has a two-link
	// chain a missed fast path would have to look at.
	w := begin(e, 0)
	for _, rid := range rids {
		if err := w.Update("accounts", rid, map[string]rel.Value{"balance": rel.Float(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Mgr.RefreshWatermark()

	tx := begin(e, 1)
	defer tx.Rollback()
	for _, rid := range rids {
		if row, ok, err := tx.Get("accounts", rid); err != nil || !ok || row[2].F != 7 {
			t.Fatalf("Get(%d) = (%v, %v, %v)", rid, row, ok, err)
		}
	}
	if tx.vis.Fast != int64(len(rids)) || tx.vis.Walks != 0 {
		t.Fatalf("%d point reads: %d fast-path hits, %d chain walks", len(rids), tx.vis.Fast, tx.vis.Walks)
	}
	n := 0
	if err := tx.ScanTable("accounts", func(rel.RowID, rel.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(rids) || tx.vis.Fast != int64(2*len(rids)) || tx.vis.Walks != 0 {
		t.Fatalf("scan of %d rows: %d fast-path hits in total, %d chain walks", n, tx.vis.Fast, tx.vis.Walks)
	}
}
