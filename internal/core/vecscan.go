package core

import (
	"time"

	"phoebedb/internal/clock"
	"phoebedb/internal/lock"
	"phoebedb/internal/metrics"
	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/txn"
)

// Full-table reads (§5.2) have one loop, scanTable: cold blocks, then hot
// pages, each handed to the consumer as column strips plus a selection
// bitmap. Predicates on fixed-width columns evaluate column-at-a-time
// against the strip bytes, so rows failing the filter are never
// materialized. MVCC qualification happens page-at-a-time first: slots
// whose newest version is visible by the watermark (or snapshot)
// short-circuit join the batch; only the residue — slots with in-flight or
// post-snapshot writers — takes a per-row chain walk. The two consumers
// are ScanTable/ScanTableFiltered (emit rows) and AggTableFiltered (fold
// aggregates).

// qualifyPage partitions a page's slots for this transaction's snapshot:
// bits left set in sel are slots whose current page bytes are the visible
// version (tombstones honored); returned residue slots need a chain walk.
// Caller holds the page's shared latch via ScanPages.
func (tx *Tx) qualifyPage(v table.PageView, snapshot, wm uint64, sel pax.Sel, residue []int) []int {
	pl, twin := v.Pl, v.Pg.Twin
	if twin.Len() == 0 {
		// No version chains anywhere on the page: current versions are
		// globally visible, tombstones invisible to everyone.
		for i, d := range pl.Deleted {
			if d {
				sel.Clear(i)
			}
		}
		return residue
	}
	for i, rid := range pl.IDs {
		head := twin.Head(rid)
		if head == nil || head.Reclaimed() {
			if pl.Deleted[i] {
				sel.Clear(i)
			}
			continue
		}
		if ets := head.ETS(); !clock.IsXID(ets) && (ets < wm || ets <= snapshot) {
			if ets < wm {
				tx.vis.Fast++
			}
			if pl.Deleted[i] {
				sel.Clear(i)
			}
			continue
		}
		sel.Clear(i)
		residue = append(residue, i)
	}
	return residue
}

// evalPreds applies the predicates to a materialized residue row, which
// bypassed the batch filter.
func evalPreds(preds []rel.ColPred, row rel.Row) bool {
	for _, p := range preds {
		if !p.EvalRow(row) {
			return false
		}
	}
	return true
}

// tableForScan opens the statement and takes the table's intention-shared
// lock.
func (tx *Tx) tableForScan(tableName string) (*Tbl, error) {
	if err := tx.stmt(); err != nil {
		return nil, err
	}
	t, err := tx.e.Table(tableName)
	if err != nil {
		return nil, err
	}
	return t, tx.lockTable(t, lock.ModeIS)
}

// scanTable runs the one full-table read loop for this transaction's
// snapshot. Frozen rows are immutable and globally visible, so a cold block
// arrives with only its tombstones cleared from sel; a hot page arrives
// after qualifyPage. Zones skip both, by one rule (pax.Zone.Prunes): a
// segment or block zone before any I/O, a hot page's zone once ScanPages
// has latched and touched the page, before qualifyPage. Either way
// FilterFixed narrows sel by preds — every predicate column must be
// fixed-width — and batch consumes the survivors straight from the strips.
// strs says whether batch reads any string column; without it cold blocks
// arrive with no strings decoded. Residue rows are rebuilt by
// ReadVisibleAt, checked against preds and handed to row. Either callback
// stops the scan by returning false.
func (tx *Tx) scanTable(t *Tbl, preds []rel.ColPred, strs bool,
	batch func(ids []rel.RowID, page *pax.Page, sel pax.Sel) (bool, error),
	row func(rid rel.RowID, row rel.Row) bool) error {
	var cbErr error
	stopped := false
	filtered := func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		cont := false
		if cbErr = page.FilterFixed(preds, sel); cbErr == nil {
			cont, cbErr = batch(ids, page, sel)
		}
		stopped = !cont || cbErr != nil
		return !stopped
	}
	if err := t.Frozen.ScanBlocks(preds, strs, filtered); err != nil {
		return err
	}
	if stopped {
		return cbErr
	}
	snapshot := tx.inner.Snapshot()
	xid := tx.XID()
	// A watermark loaded once is a valid (if slightly stale) lower bound
	// for the whole scan: it only ever advances.
	wm := tx.e.Mgr.Watermark()
	buf := make(rel.Row, t.Schema.NumCols())
	var sel pax.Sel
	var residue []int
	var pages, pruned int64
	err := t.Store.ScanPages(&tx.tctx, func(v table.PageView) bool {
		pl := v.Pl
		pages++
		if pl.Rows.Prunes(preds) {
			pruned++
			return true
		}
		start := time.Now()
		sel = sel.Reset(len(pl.IDs))
		residue = tx.qualifyPage(v, snapshot, wm, sel, residue[:0])
		tx.track(metrics.CompMVCC, start)
		if !filtered(pl.IDs, pl.Rows, sel) {
			return false
		}
		for _, i := range residue {
			start := time.Now()
			pl.Rows.ReadRowInto(i, buf)
			vis, ok := txn.ReadVisibleAt(v.Pg.Twin.Head(pl.IDs[i]), snapshot, xid, wm,
				buf, pl.Deleted[i], true, &tx.vis)
			tx.track(metrics.CompMVCC, start)
			if ok && evalPreds(preds, vis) && !row(pl.IDs[i], vis) {
				return false
			}
		}
		return true
	})
	tx.e.stats.ScanPages.Add(pages)
	tx.e.stats.ScanPagesPruned.Add(pruned)
	if cbErr != nil {
		return cbErr
	}
	if err == nil {
		err = tx.readErr()
	}
	return err
}

// ScanTable iterates every visible row: the frozen layer first (lower
// row_ids), then hot/cold pages, until fn returns false.
func (tx *Tx) ScanTable(tableName string, fn func(rid rel.RowID, row rel.Row) bool) error {
	return tx.ScanTableFiltered(tableName, nil, fn)
}

// ScanTableFiltered invokes fn for every visible row satisfying all
// predicates. Every predicate column must be fixed-width — the SQL planner
// guarantees it. The borrowed-row contract of Get applies.
func (tx *Tx) ScanTableFiltered(tableName string, preds []rel.ColPred, fn func(rid rel.RowID, row rel.Row) bool) error {
	t, err := tx.tableForScan(tableName)
	if err != nil {
		return err
	}
	buf := make(rel.Row, t.Schema.NumCols())
	return tx.scanTable(t, preds, true, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) (bool, error) {
		cont := true
		sel.ForEach(func(i int) bool {
			page.ReadRowInto(i, buf)
			cont = fn(ids[i], buf)
			return cont
		})
		return cont, nil
	}, fn)
}

// AggTableFiltered computes pushed-down aggregates over the qualifying
// rows without materializing them: each aggregate folds directly over its
// column strip. Returns one value per spec plus the qualifying row count
// (vals are meaningless when n is 0).
func (tx *Tx) AggTableFiltered(tableName string, preds []rel.ColPred, specs []rel.AggSpec) ([]rel.Value, int64, error) {
	t, err := tx.tableForScan(tableName)
	if err != nil {
		return nil, 0, err
	}
	strs := false // does any aggregate read a string column?
	for _, sp := range specs {
		strs = strs || (sp.Op != rel.AggOpCount && t.Schema.Cols[sp.Col].Type.FixedWidth() == 0)
	}
	agg := pax.NewAggState(specs)
	err = tx.scanTable(t, preds, strs, func(_ []rel.RowID, page *pax.Page, sel pax.Sel) (bool, error) {
		err := agg.Fold(page, sel)
		return err == nil, err
	}, func(_ rel.RowID, row rel.Row) bool {
		agg.FoldRow(row)
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	vals := make([]rel.Value, len(specs))
	for si, sp := range specs {
		ct := rel.TInt64
		if sp.Op != rel.AggOpCount {
			ct = t.Schema.Cols[sp.Col].Type
		}
		vals[si] = agg.Result(si, ct)
	}
	return vals, agg.N(), nil
}
