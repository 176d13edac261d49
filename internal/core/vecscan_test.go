package core

import (
	"math/rand"
	"sort"
	"testing"

	"phoebedb/internal/rel"
)

// vecIDs runs one ScanTableFiltered in tx and returns matching ids sorted
// (frozen rows surface before hot pages, so scan order is not id order).
func vecIDs(t *testing.T, tx *Tx, preds []rel.ColPred) []int64 {
	t.Helper()
	var ids []int64
	err := tx.ScanTableFiltered("accounts", preds, func(rid rel.RowID, row rel.Row) bool {
		ids = append(ids, row[0].I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// rowIDs is the row-at-a-time oracle: ScanTable plus per-row predicate
// evaluation, sorted the same way.
func rowIDs(t *testing.T, tx *Tx, preds []rel.ColPred) []int64 {
	t.Helper()
	var ids []int64
	err := tx.ScanTable("accounts", func(rid rel.RowID, row rel.Row) bool {
		if evalPreds(preds, row) {
			ids = append(ids, row[0].I)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// The batch path must agree with the row path across version chains,
// tombstones, multiple pages, and a frozen prefix.
func TestScanTableFilteredEquivalence(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tx := begin(e, 0)
	rids := make([]rel.RowID, 0, 40)
	for i := 1; i <= 40; i++ {
		rid, err := tx.Insert("accounts", acct(i, "o", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Build some history: update a few balances, delete a few rows.
	tx = begin(e, 0)
	for _, i := range []int{4, 9, 14} {
		if err := tx.Update("accounts", rids[i], map[string]rel.Value{"balance": rel.Float(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{19, 24} {
		if err := tx.Delete("accounts", rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Freeze the coldest prefix so the scan crosses the frozen layer too
	// (GC first: pages with live twins are not freezable).
	e.CollectGarbage()
	if n, err := e.FreezeTables(2, 1<<20); err != nil || n == 0 {
		t.Fatalf("freeze = (%d, %v)", n, err)
	}
	for _, preds := range [][]rel.ColPred{
		nil,
		{{Col: 0, Op: rel.CmpGe, Val: rel.Int(10)}, {Col: 0, Op: rel.CmpLt, Val: rel.Int(30)}},
		{{Col: 2, Op: rel.CmpGt, Val: rel.Float(100)}},
		{{Col: 0, Op: rel.CmpNe, Val: rel.Int(7)}},
		{{Col: 0, Op: rel.CmpGt, Val: rel.Int(1000)}}, // matches nothing
	} {
		r := begin(e, 1)
		got, want := vecIDs(t, r, preds), rowIDs(t, r, preds)
		r.Rollback()
		if !eqIDs(got, want...) {
			t.Fatalf("preds %v: vectorized %v, row path %v", preds, got, want)
		}
	}
}

// Slots with in-flight writers fall to the residue chain walk: a reader
// must see the pre-image, the writer its own version — and both through
// the filter.
func TestScanTableFilteredConcurrentWriter(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tx := begin(e, 0)
	rids := make([]rel.RowID, 0, 10)
	for i := 1; i <= 10; i++ {
		rid, err := tx.Insert("accounts", acct(i, "o", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writer := begin(e, 0)
	// Move row 3's balance across the predicate boundary and delete row 7.
	if err := writer.Update("accounts", rids[2], map[string]rel.Value{"balance": rel.Float(100)}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Delete("accounts", rids[6]); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Insert("accounts", acct(11, "o", 100)); err != nil {
		t.Fatal(err)
	}
	preds := []rel.ColPred{{Col: 2, Op: rel.CmpGe, Val: rel.Float(50)}}

	// The writer sees its own updated/inserted rows and not the deleted one.
	if got := vecIDs(t, writer, preds); !eqIDs(got, 3, 11) {
		t.Fatalf("writer sees %v, want [3 11]", got)
	}
	// A concurrent reader sees only the committed pre-images.
	reader := begin(e, 1)
	if got := vecIDs(t, reader, preds); len(got) != 0 {
		t.Fatalf("reader sees %v, want none", got)
	}
	if got := vecIDs(t, reader, nil); !eqIDs(got, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10) {
		t.Fatalf("reader sees %v, want 1..10", got)
	}
	reader.Rollback()
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	after := begin(e, 1)
	if got := vecIDs(t, after, preds); !eqIDs(got, 3, 11) {
		t.Fatalf("post-commit %v, want [3 11]", got)
	}
	if got := vecIDs(t, after, nil); !eqIDs(got, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11) {
		t.Fatalf("post-commit full %v", got)
	}
	after.Rollback()
}

// Early termination from fn must stop the scan without error.
func TestScanTableFilteredEarlyStop(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tx := begin(e, 0)
	for i := 1; i <= 30; i++ {
		if _, err := tx.Insert("accounts", acct(i, "o", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := begin(e, 0)
	defer r.Rollback()
	n := 0
	if err := r.ScanTableFiltered("accounts", nil, func(rid rel.RowID, row rel.Row) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("visited %d rows, want 5", n)
	}
}

// AggTableFiltered must match aggregates computed row at a time, across
// chains, tombstones, and the frozen layer.
func TestAggTableFilteredEquivalence(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tx := begin(e, 0)
	rids := make([]rel.RowID, 0, 30)
	for i := 1; i <= 30; i++ {
		rid, err := tx.Insert("accounts", acct(i, string(rune('a'+i%5)), float64(i)*2))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = begin(e, 0)
	if err := tx.Update("accounts", rids[9], map[string]rel.Value{"balance": rel.Float(500)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("accounts", rids[19]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.CollectGarbage()
	if _, err := e.FreezeTables(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	preds := []rel.ColPred{{Col: 0, Op: rel.CmpGe, Val: rel.Int(5)}}
	specs := []rel.AggSpec{
		{Op: rel.AggOpCount},
		{Op: rel.AggOpSum, Col: 2},
		{Op: rel.AggOpMin, Col: 2},
		{Op: rel.AggOpMax, Col: 2},
		{Op: rel.AggOpMin, Col: 1},
	}
	r := begin(e, 1)
	defer r.Rollback()
	vals, n, err := r.AggTableFiltered("accounts", preds, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Row-at-a-time oracle.
	var cnt int64
	var sum, minB, maxB float64
	minS := ""
	if err := r.ScanTable("accounts", func(rid rel.RowID, row rel.Row) bool {
		if !evalPreds(preds, row) {
			return true
		}
		b := row[2].F
		if cnt == 0 || b < minB {
			minB = b
		}
		if cnt == 0 || b > maxB {
			maxB = b
		}
		if cnt == 0 || row[1].S < minS {
			minS = row[1].S
		}
		sum += b
		cnt++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != cnt || vals[0].I != cnt {
		t.Fatalf("count = (%d, %v), want %d", n, vals[0], cnt)
	}
	if vals[1].F != sum {
		t.Fatalf("sum = %v, want %v", vals[1], sum)
	}
	if vals[2].F != minB || vals[3].F != maxB {
		t.Fatalf("min/max = %v/%v, want %v/%v", vals[2], vals[3], minB, maxB)
	}
	if vals[4].S != minS {
		t.Fatalf("min owner = %v, want %q", vals[4], minS)
	}
}

// An all-filtered scan reports n = 0 so the SQL layer can substitute its
// empty-input aggregate defaults.
func TestAggTableFilteredEmpty(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	tx := begin(e, 0)
	for i := 1; i <= 5; i++ {
		if _, err := tx.Insert("accounts", acct(i, "o", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := begin(e, 0)
	defer r.Rollback()
	_, n, err := r.AggTableFiltered("accounts",
		[]rel.ColPred{{Col: 0, Op: rel.CmpGt, Val: rel.Int(100)}},
		[]rel.AggSpec{{Op: rel.AggOpCount}, {Op: rel.AggOpSum, Col: 2}})
	if err != nil || n != 0 {
		t.Fatalf("empty agg = (%d, %v), want (0, nil)", n, err)
	}
}

// Both ablation flags must turn the vectorized capability off — the batch
// path builds on the watermark read fast path.
func TestVectorizedScanAblation(t *testing.T) {
	for _, cfg := range []Config{
		{DisableVectorizedScan: true},
		{DisableReadFastPath: true},
	} {
		e := openTestEngine(t, cfg)
		tx := begin(e, 0)
		if tx.VectorizedScanEnabled() {
			t.Fatalf("VectorizedScanEnabled under %+v", cfg)
		}
		tx.Rollback()
	}
	e := openTestEngine(t, Config{})
	tx := begin(e, 0)
	if !tx.VectorizedScanEnabled() {
		t.Fatal("vectorized scan disabled by default")
	}
	tx.Rollback()
}

// A table spanning all three temperatures at once — compacted cold
// levels, a fresh L0 segment, and hot pages — must filter identically on
// the batch and row paths, including after delete-marks and warm-ups move
// rows between tiers, and even when a warm-up lands mid-scan.
func TestScanFilteredThreeTemperatures(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tb, err := e.Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tb.Frozen.Fanout = 2
	tb.Frozen.BlockRows = 8

	tx := begin(e, 0)
	rids := make([]rel.RowID, 0, 80)
	for i := 1; i <= 80; i++ {
		rid, err := tx.Insert("accounts", acct(i, "o", float64(i)*10))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// History on rows headed for every tier: two updates and two deletes,
	// one pair in the soon-frozen prefix, one in the hot tail.
	tx = begin(e, 0)
	for _, i := range []int{3, 40} {
		if err := tx.Update("accounts", rids[i], map[string]rel.Value{"balance": rel.Float(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{12, 70} {
		if err := tx.Delete("accounts", rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.CollectGarbage()
	e.CollectGarbage()
	// Three separate freeze batches become three L0 segments; compaction
	// (fanout 2) merges into level 1; one more freeze leaves a fresh L0
	// beside it. The last two pages stay hot.
	for i := 0; i < 3; i++ {
		if n, err := e.FreezeTables(2, 1<<20); err != nil || n == 0 {
			t.Fatalf("freeze %d = (%d, %v)", i, n, err)
		}
	}
	if _, err := e.CompactColdAll(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FreezeTables(2, 1<<20); err != nil || n == 0 {
		t.Fatalf("post-compact freeze = (%d, %v)", n, err)
	}
	st := e.ColdStats()
	maxFrozen := tb.Store.MaxFrozenRowID()
	if st.MaxLevel < 1 || st.Segments < 2 || maxFrozen == 0 || maxFrozen >= rids[79] {
		t.Fatalf("tier shape: %+v, frontier %d", st, maxFrozen)
	}

	predSets := [][]rel.ColPred{
		nil,
		{{Col: 0, Op: rel.CmpGe, Val: rel.Int(10)}, {Col: 0, Op: rel.CmpLt, Val: rel.Int(60)}},
		{{Col: 2, Op: rel.CmpGt, Val: rel.Float(500)}},
		{{Col: 0, Op: rel.CmpGt, Val: rel.Int(5000)}}, // matches nothing
	}
	check := func(stage string) {
		t.Helper()
		for _, preds := range predSets {
			r := begin(e, 1)
			got, want := vecIDs(t, r, preds), rowIDs(t, r, preds)
			r.Rollback()
			if !eqIDs(got, want...) {
				t.Fatalf("%s: preds %v: vectorized %v, row path %v", stage, preds, got, want)
			}
		}
	}
	check("three tiers")

	// Property: random conjunctions of <,<=,>,>=,=,!= and BETWEEN on the
	// int and float columns agree with the row path (which scans the cold
	// tier unpruned) over hot pages, a level-0 and a compacted segment —
	// and block zone maps prune along the way.
	rng := rand.New(rand.NewSource(23))
	ops := []rel.CmpOp{rel.CmpEq, rel.CmpNe, rel.CmpLt, rel.CmpLe, rel.CmpGt, rel.CmpGe}
	randVal := func(col int) rel.Value {
		v := rng.Intn(100) - 10
		if col == 0 {
			return rel.Int(int64(v))
		}
		return rel.Float(float64(v) * 10)
	}
	randomPreds := func(stage string) {
		t.Helper()
		before := e.ColdStats()
		for iter := 0; iter < 300; iter++ {
			var preds []rel.ColPred
			for n := 1 + rng.Intn(3); n > 0; n-- {
				col := []int{0, 2}[rng.Intn(2)]
				if rng.Intn(4) == 0 {
					preds = append(preds, rel.ColPred{Col: col, Op: rel.CmpGe, Val: randVal(col)},
						rel.ColPred{Col: col, Op: rel.CmpLe, Val: randVal(col)})
					continue
				}
				preds = append(preds, rel.ColPred{Col: col, Op: ops[rng.Intn(len(ops))], Val: randVal(col)})
			}
			r := begin(e, 1)
			got, want := vecIDs(t, r, preds), rowIDs(t, r, preds)
			r.Rollback()
			if !eqIDs(got, want...) {
				t.Fatalf("%s: preds %+v: vectorized %v, row path %v", stage, preds, got, want)
			}
		}
		if after := e.ColdStats(); after.ScanBlocksPruned == before.ScanBlocksPruned {
			t.Fatalf("%s: 300 random predicates pruned no cold block", stage)
		}
	}
	randomPreds("three tiers")

	// Delete-mark a compacted row and update an L0 row: both warm into hot
	// storage with fresh row_ids inside the transaction, leaving frozen
	// tombstones behind.
	tx = begin(e, 0)
	if err := tx.Delete("accounts", rids[5]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", rids[50], map[string]rel.Value{"balance": rel.Float(2000)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after frozen delete+update")
	randomPreds("after frozen delete+update")
	r := begin(e, 1)
	seen := make(map[int64]float64)
	if err := r.ScanTable("accounts", func(_ rel.RowID, row rel.Row) bool {
		seen[row[0].I] = row[2].F
		return true
	}); err != nil {
		t.Fatal(err)
	}
	r.Rollback()
	if _, ok := seen[6]; ok {
		t.Fatal("frozen-deleted id 6 still visible")
	}
	if seen[51] != 2000 {
		t.Fatalf("warmed id 51 balance = %v, want 2000", seen[51])
	}

	// Mid-scan warm-up: the frozen sections stream before hot pages, so a
	// warm triggered at the first hot row moves already-emitted frozen rows
	// into hot storage beneath the running scan. The warmed copies commit
	// after the statement snapshot, so the scan still sees every row
	// exactly once.
	tb.Frozen.WarmThreshold = 1
	r = begin(e, 1)
	want := rowIDs(t, r, nil)
	var got []int64
	warmed := false
	err = r.ScanTableFiltered("accounts", nil, func(rid rel.RowID, row rel.Row) bool {
		if !warmed && rid > maxFrozen {
			warmed = true
			w := begin(e, 0)
			if _, ok, err := w.Get("accounts", rids[20]); err != nil || !ok {
				t.Fatalf("mid-scan frozen get = (%v, %v)", ok, err)
			}
			w.Rollback() // the read queued the warm; nothing to commit
			if n, err := e.ProcessWarmQueue(0); err != nil || n == 0 {
				t.Fatalf("mid-scan warm = (%d, %v)", n, err)
			}
		}
		got = append(got, row[0].I)
		return true
	})
	r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if !warmed {
		t.Fatal("scan never reached a hot row")
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !eqIDs(got, want...) {
		t.Fatalf("mid-scan warm: scan saw %v, want %v", got, want)
	}
	check("after mid-scan warm")
}
