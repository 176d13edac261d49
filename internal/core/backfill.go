package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"phoebedb/internal/fault"
	"phoebedb/internal/lock"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/txn"
	"phoebedb/internal/undo"
)

// Online CREATE INDEX (§5.1 extended): build a secondary index over a
// table that already holds data, without blocking writers. The index is
// never consulted by readers or the planner until it is complete.
//
// The build follows the online base backup's horizon trick, adapted to
// MVCC version chains:
//
//  1. Register the index hidden. From this point every writer maintains
//     it (Tbl.Indexes() includes hidden indexes), but Index.Live() is
//     false so resolveIndex and the SQL planner refuse to read it.
//  2. Raise the horizon: wait until every transaction that began before
//     registration has finished. Those writers may have captured the
//     index list from before step 1; once they are gone, every commit
//     newer than the backfill snapshot is guaranteed to carry its own
//     index maintenance.
//  3. Snapshot scan: one transaction walks the table and inserts an
//     entry for the version visible at its snapshot S.
//  4. Catch-up from version chains (non-unique only): the same scan also
//     walks each row's UNDO chain and inserts entries for every older
//     version's key, so a reader holding a snapshot < S still finds rows
//     whose key changed shortly before the scan. Non-unique keys carry a
//     row-id suffix and readers re-verify the indexed columns against the
//     visible row, so surplus historical entries are harmless.
//  5. Unique indexes cannot represent historical keys (no row-id suffix),
//     so instead of chain catch-up the build waits for the watermark to
//     pass S — afterwards no live snapshot predates the scan — and then
//     re-verifies that no two visible rows share a key (writers racing
//     the scan could each have passed their uniqueness check before
//     either entry existed).
//  6. Log the index definition, then flip the index live.
//
// A crash mid-backfill is benign by construction: the build only mutates
// the in-memory B-tree, and the index is in neither the log nor a
// checkpoint image until step 6, so recovery comes back without it; the
// fault.SQLIndexBackfill failpoint in the scan loop lets the crash
// harness prove it.

// horizonWait bounds the backfill's wait for concurrent transactions to
// drain (steps 2 and 5 above). Generous: it only trips when a transaction
// runs for the whole window.
const horizonWait = 30 * time.Second

// errBackfillCrash marks an injected crash captured mid-scan; the scan
// re-panics once every latch is released.
var errBackfillCrash = errors.New("core: injected backfill crash")

// CreateIndexOnline builds an index over a table that may already hold
// data, concurrently with writers. run must execute its argument inside a
// fresh transaction (committing on nil return); the engine owner supplies
// it so the backfill rides whatever scheduling the host uses (DB.Execute
// submits to the co-routine pool). On any error the half-built index is
// dropped and never becomes visible.
func (e *Engine) CreateIndexOnline(tableName, indexName string, cols []string, unique bool,
	run func(fn func(tx *Tx) error) error) (*Index, error) {

	e.sysMu.Lock()
	t, d, err := e.indexDef(tableName, indexName, cols, unique)
	if err != nil {
		e.sysMu.Unlock()
		return nil, err
	}
	ix := addIndex(t, d, true)
	e.sysMu.Unlock()
	fail := func(err error) (*Index, error) {
		e.dropIndex(t, indexName)
		return nil, err
	}

	// Step 2: wait out every transaction that predates registration.
	regTS := e.Mgr.Clock.Now()
	if !waitUntil(func() bool { return e.Mgr.MinActiveStartTS() > regTS }) {
		return fail(fmt.Errorf("core: index backfill on %q: timed out waiting for pre-registration transactions", tableName))
	}

	// Steps 3+4: snapshot scan with version-chain catch-up.
	var snap uint64
	if err := run(func(tx *Tx) error { return tx.backfillIndex(t, ix, &snap) }); err != nil {
		return fail(err)
	}

	if unique {
		// Step 5: wait until no live snapshot predates the scan, then
		// verify uniqueness across the rows visible now.
		if !waitUntil(func() bool { return e.Mgr.RefreshWatermark() > snap }) {
			return fail(fmt.Errorf("core: index backfill on %q: timed out waiting for pre-scan snapshots", tableName))
		}
		if err := run(func(tx *Tx) error { return tx.verifyUniqueBackfill(t, ix) }); err != nil {
			return fail(err)
		}
	}

	// Step 6: log the index, then flip it live.
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	if err := e.logCatalog(d); err != nil {
		return fail(err)
	}
	ix.hidden.Store(false)
	return ix, nil
}

// waitUntil polls cond (which must become true once concurrent
// transactions finish) up to horizonWait.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(horizonWait)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// backfillIndex is the scan transaction of CreateIndexOnline: it inserts
// an entry for every version of every row that some live or future
// snapshot could still see, and reports the statement snapshot so the
// caller can wait it out for unique builds.
func (tx *Tx) backfillIndex(t *Tbl, ix *Index, snapOut *uint64) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	if err := tx.lockTable(t, lock.ModeIS); err != nil {
		return err
	}
	snapshot := tx.inner.Snapshot()
	*snapOut = snapshot
	xid := tx.XID()
	wm := tx.e.Mgr.Watermark()

	rows := 0
	// An injected crash (panic action) must not unwind while the scan
	// holds a page latch — the simulated "dead" process shares the
	// address space with the still-live workload, and a leaked latch
	// would deadlock it. Capture the crash here and re-throw it after
	// the scan has released everything.
	var crash any
	checkFault := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if !fault.IsCrash(r) {
					panic(r)
				}
				crash = r
				err = errBackfillCrash
			}
		}()
		return fault.Eval(fault.SQLIndexBackfill)
	}
	entry := func(row rel.Row, rid rel.RowID) error {
		if err := checkFault(); err != nil {
			return fmt.Errorf("core: index backfill on %q: %w", t.Name, err)
		}
		if ix.Unique {
			if err := claimUniqueEntry(tx, t, ix, row, rid); err != nil {
				return err
			}
		} else {
			claimKey(ix, indexKey(ix, row, rid), rid, 0)
		}
		rows++
		return nil
	}

	// Frozen rows are globally visible and have no version chains.
	var ferr error
	if err := t.Frozen.ScanLive(func(rid rel.RowID, row rel.Row) bool {
		ferr = entry(row, rid)
		return ferr == nil
	}); err != nil {
		return err
	}
	if crash != nil {
		panic(crash)
	}
	if ferr != nil {
		return ferr
	}

	// Hot/cold pages: tombstones flow through too — a recently deleted
	// row may still be visible to old snapshots via its chain.
	var serr error
	err := t.Store.ScanAll(&tx.tctx, func(rid rel.RowID, row rel.Row, h *table.Handle) bool {
		var head *undo.Record
		if tt := h.TwinTable(false); tt != nil {
			head = tt.Head(rid)
		}
		if ix.Unique {
			// Unique: index exactly the version visible at S. The
			// visibility check may rewrite the scratch row in place.
			visRow, ok := txn.ReadVisibleAt(head, snapshot, xid, wm, row, h.Deleted(), true, &tx.vis)
			if !ok {
				return true
			}
			serr = entry(visRow, rid)
		} else {
			// Non-unique: index the key of every version a snapshot can
			// still reach, newest to oldest (catch-up), up to the first
			// reclaimed record, past which GC has released the keys.
			// Claiming an unchanged key again is a no-op.
			if !h.Deleted() {
				if serr = entry(row, rid); serr != nil {
					return false
				}
			} else if head == nil {
				return true // long-dead tombstone: no snapshot sees it
			}
			for rec := head; rec != nil && !rec.Reclaimed() && serr == nil; rec = rec.Prev {
				switch rec.Op {
				case undo.OpInsert:
					return true // row did not exist before this
				case undo.OpUpdate:
					for _, cv := range rec.Delta {
						row[cv.Col] = cv.Val
					}
					serr = entry(row, rid)
				case undo.OpDelete:
					// Before image: the row existed with current values.
					serr = entry(row, rid)
				}
			}
		}
		return serr == nil
	})
	tx.e.stats.IndexBackfillRows.Add(int64(rows))
	if crash != nil {
		panic(crash)
	}
	if err == nil {
		err = tx.readErr()
	}
	if err != nil {
		return err
	}
	return serr
}

// claimUniqueEntry claims a unique-index entry for row rid during
// backfill, detecting rows that already held the same key before the
// index existed. An entry claimed by a concurrent writer whose row still
// carries the key is a genuine duplicate; a stale claim (the other row's
// visible version moved off the key, or the row died) is taken over.
func claimUniqueEntry(tx *Tx, t *Tbl, ix *Index, row rel.Row, rid rel.RowID) error {
	k := indexKey(ix, row, rid)
	_, other := claimKey(ix, k, rid, 0)
	if other == 0 {
		return nil
	}
	otherRow, visible, err := tx.readRow(t, other)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	if visible && bytes.Equal(indexKey(ix, otherRow, other), k) {
		return fmt.Errorf("%w: index %q (existing rows)", ErrDuplicate, ix.Name)
	}
	claimKey(ix, k, rid, other)
	return nil
}

// verifyUniqueBackfill is the post-watermark uniqueness check of a unique
// online build: no two rows visible at this transaction's snapshot may
// share a key, and every visible row must own its tree entry. It closes
// the race where two concurrent inserts of the same key each passed their
// uniqueness check before either tree entry existed.
func (tx *Tx) verifyUniqueBackfill(t *Tbl, ix *Index) error {
	type keyed struct {
		key []byte
		rid rel.RowID
	}
	var all []keyed
	if err := tx.ScanTable(t.Name, func(rid rel.RowID, row rel.Row) bool {
		all = append(all, keyed{key: indexKey(ix, row, rid), rid: rid})
		return true
	}); err != nil {
		return err
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].key, all[j].key) < 0 })
	for i, kr := range all {
		if i > 0 && bytes.Equal(kr.key, all[i-1].key) {
			return fmt.Errorf("%w: index %q (existing rows)", ErrDuplicate, ix.Name)
		}
		// Repair entries lost to the register/scan race: the visible row
		// is the unique key's rightful owner.
		owner, _ := ix.Tree.Lookup(kr.key)
		claimKey(ix, kr.key, kr.rid, rel.RowID(owner))
	}
	return nil
}
