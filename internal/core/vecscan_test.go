package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"phoebedb/internal/frozen"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
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

// pointScan is the reference the scan tests compare against — the point
// path, which shares nothing with the scan loop: every row_id the table has
// assigned is read with Tx.Get (WithRow + ReadVisibleAt on hot pages,
// frozen.Store.Get on cold blocks; no ScanBlocks, ScanPages, qualifyPage or
// FilterFixed) and filtered with ColPred.EvalRow.
func pointScan(t *testing.T, tx *Tx, preds []rel.ColPred, fn func(row rel.Row)) {
	t.Helper()
	tb, err := tx.e.Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	for rid := rel.RowID(1); rid <= tb.Store.NextRowID(); rid++ {
		row, ok, err := tx.Get("accounts", rid)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		match := true
		for _, p := range preds {
			match = match && p.EvalRow(row)
		}
		if match {
			fn(row)
		}
	}
}

// pointIDs collects pointScan's matching ids, sorted like vecIDs.
func pointIDs(t *testing.T, tx *Tx, preds []rel.ColPred) []int64 {
	t.Helper()
	var ids []int64
	pointScan(t, tx, preds, func(row rel.Row) { ids = append(ids, row[0].I) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// The scan loop must agree with the point path across version chains,
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
		got, want := vecIDs(t, r, preds), pointIDs(t, r, preds)
		r.Rollback()
		if !eqIDs(got, want...) {
			t.Fatalf("preds %v: scan %v, point path %v", preds, got, want)
		}
	}
}

// Slots with in-flight writers fall to the residue chain walk: a reader
// must see the pre-image, the writer its own version — both through the
// filter, and both as the point path sees them. A RepeatableRead reader
// keeps its view after the writer commits.
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
	preds := []rel.ColPred{{Col: 2, Op: rel.CmpGe, Val: rel.Float(50)}}
	// agree checks the scan against both the literal expectation and the
	// point path, for the filter and for no filter.
	agree := func(who string, tx *Tx, filtered, all []int64) {
		t.Helper()
		for _, c := range []struct {
			preds []rel.ColPred
			want  []int64
		}{{preds, filtered}, {nil, all}} {
			got, point := vecIDs(t, tx, c.preds), pointIDs(t, tx, c.preds)
			if !eqIDs(got, c.want...) || !eqIDs(point, c.want...) {
				t.Fatalf("%s, preds %v: scan %v, point path %v, want %v", who, c.preds, got, point, c.want)
			}
		}
	}
	reader := e.Begin(1, txn.RepeatableRead, nil, nil, nil)
	agree("reader before the writer", reader, nil, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})

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
	// The writer sees its own updated/inserted rows and not the deleted one.
	agree("writer", writer, []int64{3, 11}, []int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 11})
	// The reader sees only the committed pre-images, in flight...
	agree("reader, writer in flight", reader, nil, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// ...and after the commit its snapshot predates.
	agree("reader, writer committed", reader, nil, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	reader.Rollback()
	after := begin(e, 1)
	agree("post-commit", after, []int64{3, 11}, []int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 11})
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

// AggTableFiltered must match aggregates folded over the point path,
// across chains, tombstones, and the frozen layer.
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
	// Point-path oracle.
	var cnt int64
	var sum, minB, maxB float64
	minS := ""
	pointScan(t, r, preds, func(row rel.Row) {
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
	})
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

// An aggregate whose predicates and aggregates read only fixed-width
// columns inflates no cold block's var stream, and still agrees with the
// row path; one over the string column inflates them.
func TestAggOverColdFixedColumnsInflatesNoStrings(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tb, err := e.Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tb.Frozen.BlockRows = 8
	tb.Frozen.CacheBytes = 1 // the reference's Gets leave the scans one cached block
	tx := begin(e, 0)
	for i := 1; i <= 64; i++ {
		if _, err := tx.Insert("accounts", acct(i, fmt.Sprintf("owner-%02d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.CollectGarbage()
	e.CollectGarbage()
	if n, err := e.FreezeTables(6, 1<<20); err != nil || n < 40 {
		t.Fatalf("FreezeTables = (%d, %v), want most rows frozen", n, err)
	}
	preds := []rel.ColPred{{Col: 0, Op: rel.CmpGe, Val: rel.Int(5)}, {Col: 0, Op: rel.CmpLe, Val: rel.Int(50)}}
	var wantSum float64
	var wantN int64
	r := begin(e, 1)
	defer r.Rollback()
	pointScan(t, r, preds, func(row rel.Row) {
		wantSum += row[2].F
		wantN++
	})
	before := frozen.Inflates()
	vals, n, err := r.AggTableFiltered("accounts", preds,
		[]rel.AggSpec{{Op: rel.AggOpCount}, {Op: rel.AggOpSum, Col: 2}, {Op: rel.AggOpMax, Col: 0}})
	if err != nil || n != wantN || vals[1].F != wantSum || vals[2].I != 50 {
		t.Fatalf("agg = (%v, %d, %v), want count %d, sum %v, max 50", vals, n, err, wantN, wantSum)
	}
	if got := frozen.Inflates() - before; got != 0 {
		t.Fatalf("a fixed-column aggregate inflated %d cold var streams, want 0", got)
	}
	if st := e.ColdStats(); st.ScanBlocks == 0 {
		t.Fatalf("the aggregate read no cold block: %+v", st)
	}
	vals, _, err = r.AggTableFiltered("accounts", preds, []rel.AggSpec{{Op: rel.AggOpMax, Col: 1}})
	if err != nil || vals[0].S != "owner-50" {
		t.Fatalf("max(owner) = (%v, %v), want owner-50", vals, err)
	}
	if frozen.Inflates() == before {
		t.Fatal("an aggregate over the string column inflated no var stream")
	}
}

// A table spanning all three temperatures at once — compacted cold
// levels, a fresh L0 segment, and hot pages — must scan exactly what the
// point path reads, including after delete-marks and warm-ups move rows
// between tiers, and — under one RepeatableRead snapshot — beside a
// concurrent updater, deleter and inserter and a warm-up landing mid-scan.
func TestScanFilteredThreeTemperatures(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8})
	setupAccounts(t, e)
	tb, err := e.Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tb.Frozen.Fanout = 2
	tb.Frozen.BlockRows = 8
	tb.Frozen.WarmThreshold = math.MaxUint32 // the reference's Gets never queue a warm-up

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
			got, want := vecIDs(t, r, preds), pointIDs(t, r, preds)
			r.Rollback()
			if !eqIDs(got, want...) {
				t.Fatalf("%s: preds %v: scan %v, point path %v", stage, preds, got, want)
			}
		}
	}
	check("three tiers")

	// Property: random conjunctions of <,<=,>,>=,=,!= and BETWEEN on the
	// int and float columns agree with the point path (which never sees a
	// zone map) over hot pages, a level-0 and a compacted segment — and
	// block zone maps prune along the way.
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
			got, want := vecIDs(t, r, preds), pointIDs(t, r, preds)
			r.Rollback()
			if !eqIDs(got, want...) {
				t.Fatalf("%s: preds %+v: scan %v, point path %v", stage, preds, got, want)
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

	// One RepeatableRead snapshot. Its first reads pin it; then writers
	// change hot rows behind it — committed and still in flight, each
	// moving a row across a predicate boundary, deleting one and inserting
	// one — so those slots are the scan's chain-walk residue. (Hot rows
	// only: ROADMAP item 1(a), a frozen row moved after a snapshot is
	// invisible to it in both tiers, on either path.)
	r = e.Begin(1, txn.RepeatableRead, nil, nil, nil)
	want := make([][]int64, len(predSets))
	for i, preds := range predSets {
		want[i] = pointIDs(t, r, preds)
	}
	for _, i := range []int{65, 71, 74, 77} {
		if rids[i] <= maxFrozen {
			t.Fatalf("id %d is not hot (frontier %d)", i+1, maxFrozen)
		}
	}
	write := func(w *Tx, upd, del, ins int) {
		t.Helper()
		if err := w.Update("accounts", rids[upd], map[string]rel.Value{"balance": rel.Float(1)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Delete("accounts", rids[del]); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Insert("accounts", acct(ins, "o", 9000)); err != nil {
			t.Fatal(err)
		}
	}
	committed := begin(e, 2)
	write(committed, 74, 77, 81)
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	inflight := begin(e, 3)
	write(inflight, 71, 65, 82)
	for i, preds := range predSets {
		if got := pointIDs(t, r, preds); !eqIDs(got, want[i]...) {
			t.Fatalf("snapshot moved on the point path: preds %v: %v, was %v", preds, got, want[i])
		}
		if i > 0 { // the unfiltered scan runs last, with the warm-up
			if got := vecIDs(t, r, preds); !eqIDs(got, want[i]...) {
				t.Fatalf("snapshot scan: preds %v: scan %v, point path %v", preds, got, want[i])
			}
		}
	}

	// Mid-scan warm-up: the frozen sections stream before hot pages, so a
	// warm triggered at the first hot row moves already-emitted frozen rows
	// into hot storage beneath the running scan. The warmed copies commit
	// after the snapshot, so the scan still sees every row exactly once.
	tb.Frozen.WarmThreshold = 1
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
	if !eqIDs(got, want[0]...) {
		t.Fatalf("mid-scan warm: scan saw %v, want %v", got, want[0])
	}
	tb.Frozen.WarmThreshold = math.MaxUint32
	check("writer in flight, after mid-scan warm")
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
	check("writers committed")
}
