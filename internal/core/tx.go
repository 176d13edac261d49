package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"phoebedb/internal/lock"
	"phoebedb/internal/metrics"
	"phoebedb/internal/park"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/txn"
	"phoebedb/internal/undo"
	"phoebedb/internal/waitevent"
	"phoebedb/internal/wal"
)

// Tx is one transaction bound to a task slot. All methods must be called
// from that slot's goroutine; a slot runs one transaction at a time (§7.1).
//
// The engine keeps exactly one Tx per slot and Begin resets it in place, so
// the handle Begin returns IS the slot's transaction state: its scratch
// buffers (rowBuf, cands, encBuf, the UNDO record list, ...) survive from
// one transaction to the next and a steady-state Begin allocates nothing.
// A handle used after Commit/Rollback reports ErrTxnDone until the slot's
// next Begin, from which point it names that new transaction — callers
// must not keep a handle past the transaction it was returned for.
type Tx struct {
	e     *Engine
	inner txn.Txn
	slot  int

	// waitTimer backs the blocking low-urgency wait of a caller that
	// supplied no waitLow (sessions, system slots, crash tests).
	waitTimer park.Timer
	// commitWait is waitCommit as a func value, made once per slot so
	// Begin can hand it to the visibility checks without allocating.
	commitWait func(*undo.TxnMeta) bool
	// ownMets receives the accounting of a Begin that supplied no
	// SlotMetrics; created on the slot's first such Begin.
	ownMets *metrics.SlotMetrics

	// tctx is the table-layer context: the yield hook plus the wait-event
	// identity (slots + slot id) that residency misses stamp as buffer_io.
	tctx table.Ctx

	// txnState is everything that belongs to the current transaction alone;
	// Begin replaces it wholesale.
	txnState

	// tableLocks is the per-transaction table-lock set. Transactions touch
	// a handful of tables, so a linear-scanned slice (inline backing array,
	// no per-Begin allocation) beats a map on the hot path.
	tableLocks    []tblLock
	tableLocksBuf [8]tblLock
	// idxOps records index mutations for rollback as a flat list. Ops for
	// one UNDO record are contiguous (statements run sequentially on the
	// slot), so rollback walks record groups from the tail in lockstep
	// with the reversed record list.
	idxOps    []recIdxOp
	idxOpsBuf [8]recIdxOp
	// encBuf is the WAL payload scratch: Writer.Append copies the payload
	// into its own buffer synchronously, so one per-transaction buffer is
	// reused across every EncodeRow/EncodeDelta call.
	encBuf []byte
	// cands is the index-scan candidate scratch, reused across scans.
	cands []rel.RowID
	// candKeys/candEnds hold the candidates' full entry keys (concatenated,
	// with end offsets): the scan verifies each visible row against the
	// entry that produced it, not just the search prefix, so stale entries
	// left behind by updates to non-prefix index columns are filtered even
	// when they fall inside the scanned range. Taken off the transaction
	// during a scan, like cands.
	candKeys []byte
	candEnds []int
	// verifyBuf is the recomputed-entry-key scratch for that check.
	verifyBuf []byte
	// rowBuf is the point-read scratch: readRow materializes the current
	// version here and the visibility check applies before-image deltas in
	// place. Rows returned from Get/GetByIndex alias it, hence the borrowed
	// contract: they are valid only until the transaction's next operation.
	rowBuf rel.Row
	// scanRowBuf is the index-scan row scratch. Like cands it is taken off
	// the transaction during a scan so point reads issued from inside the
	// scan callback keep their own buffer (rowBuf) rather than clobbering
	// the row the callback is looking at.
	scanRowBuf rel.Row
	// keyBuf and endBuf hold the encoded index search prefix and its
	// exclusive upper bound, reused across scans (both are consumed before
	// any callback runs, so nested scans may clobber them freely).
	keyBuf []byte
	endBuf []byte
	// frozenRestores lists frozen tombstones to clear on rollback.
	frozenRestores []frozenRestore
	// setNames/setCols/setVals are resolveSet's scratch: a write's SET
	// ordered by column name and resolved to schema positions.
	setNames []string
	setCols  []int
	setVals  rel.Row
}

// txnState is the part of a Tx that does not outlive a transaction.
type txnState struct {
	// Yield hooks supplied by the scheduler; either may be nil.
	yield   func()                                               // high urgency
	waitLow func(ch <-chan struct{}, timeout time.Duration) bool // low urgency
	mets    *metrics.SlotMetrics

	// stmtFP/planNote carry the SQL layer's statement fingerprint and plan
	// provenance into the transaction trace (slow log, trace ring).
	stmtFP   string
	planNote string

	started time.Time
	tracked time.Duration
	// active is set by Begin and cleared by Commit/Rollback.
	active bool

	// comp and waited are the transaction-local copy of the component
	// accounting, kept for the per-transaction trace (slow-transaction log
	// and trace ring) without re-reading the shared slot counters.
	comp   [metrics.NumComponents]time.Duration
	waited time.Duration
	// vis accumulates visibility-check outcomes locally; finishMetrics
	// flushes the totals into the engine's shared counters in one shot.
	vis txn.VisStats
	// visErr is set when a read gave up waiting for a commit; the read
	// path that made it returns it (readErr).
	visErr error
}

type tblLock struct {
	t *Tbl
	m lock.Mode
}

// idxOp is one index write, as rollback reverts it: after the write key
// names rid, and before it key named old. A rid or old of 0 is no row: an
// entry the write removed, or one it made.
type idxOp struct {
	ix       *Index
	key      []byte
	rid, old rel.RowID
}

// revert puts back the row the write replaced or removed, or else
// releases the entry it made; h is as releaseKey takes it.
func (op idxOp) revert(h *table.Handle) {
	if op.old != 0 && op.old != op.rid {
		claimKey(op.ix, op.key, op.old, op.rid)
	} else {
		releaseKey(op.ix, op.key, op.rid, h)
	}
}

// recIdxOp ties an index mutation to the UNDO record whose rollback
// reverts it.
type recIdxOp struct {
	rec *undo.Record
	idxOp
}

type frozenRestore struct {
	t   *Tbl
	rid rel.RowID
}

// Begin starts a transaction on the slot, resetting the slot's Tx in place.
// mets may be nil (the slot's own metrics block is used); yield and waitLow
// may be nil (blocking defaults are used). The slot's previous transaction
// must have finished: a slot runs one transaction at a time, the invariant
// the manager's per-slot active-start word already rests on, so a Begin
// over an open transaction is a caller bug and panics.
func (e *Engine) Begin(slot int, iso txn.Isolation, mets *metrics.SlotMetrics,
	yield func(), waitLow func(ch <-chan struct{}, timeout time.Duration) bool) *Tx {
	tx := e.txs[slot]
	if tx.active {
		panic(fmt.Sprintf("core: Begin on slot %d while its transaction %d is still open", slot, tx.XID()))
	}
	if mets == nil {
		if tx.ownMets == nil {
			tx.ownMets = &metrics.SlotMetrics{}
		}
		mets = tx.ownMets
	}
	e.Mgr.Begin(&tx.inner, slot, iso)
	tx.txnState = txnState{
		yield: yield, waitLow: waitLow, mets: mets,
		started: time.Now(),
		active:  true,
		vis:     txn.VisStats{ChainLen: &e.stats.MVCCChainLen, Wait: tx.commitWait},
	}
	tx.tctx.Yield = yield
	return tx
}

// newTx builds a slot's transaction state; called once per slot at Open.
func newTx(e *Engine, slot int) *Tx {
	tx := &Tx{e: e, slot: slot}
	tx.commitWait = tx.waitCommit
	tx.tctx = table.Ctx{Waits: e.cfg.Waits, Slot: slot}
	tx.tableLocks = tx.tableLocksBuf[:0]
	tx.idxOps = tx.idxOpsBuf[:0]
	return tx
}

// Bounds, in elements, on the per-slot lists a transaction leaves behind
// for the next one. A bulk transaction's index-op list (a 100 000-row load)
// is dropped, an OLTP transaction's kept; the index-scan candidate lists
// get more room, because an ordinary statement fills them with every entry
// under its prefix before it visits the first (TPC-C's oldest-new-order
// probe collects a district's ~900 entries to return one).
const (
	maxKeptIdxOps = 256
	maxKeptCands  = 16384
)

// finish closes the transaction's handle and releases what its scratch
// lists reference (index keys, UNDO records); the arrays stay. The row
// buffers keep their last values — a borrowed row handed out by the
// transaction's final read stays readable until the slot's next one, and
// what they can pin is at most one hot page's string bytes per slot (cold
// rows are returned from the block image, never copied here).
func (tx *Tx) finish() {
	tx.active = false
	clear(tx.idxOps)
	tx.idxOps = tx.idxOps[:0]
	if cap(tx.idxOps) > maxKeptIdxOps {
		tx.idxOps = tx.idxOpsBuf[:0]
	}
	clear(tx.frozenRestores)
	tx.frozenRestores = tx.frozenRestores[:0]
	if cap(tx.cands) > maxKeptCands {
		tx.cands, tx.candKeys, tx.candEnds = nil, nil, nil
	}
}

// XID returns the transaction ID.
func (tx *Tx) XID() uint64 { return tx.inner.XID() }

// Snapshot returns the current statement snapshot.
func (tx *Tx) Snapshot() uint64 { return tx.inner.Snapshot() }

// Slot returns the task slot the transaction is bound to.
func (tx *Tx) Slot() int { return tx.slot }

// NoteStatement records the normalized fingerprint of the statement the
// transaction is executing; it is carried into the transaction trace so
// slow-log lines identify the query.
func (tx *Tx) NoteStatement(fp string) { tx.stmtFP = fp }

// NotePlan records the executor's plan provenance (access path, join
// strategy) for the transaction trace.
func (tx *Tx) NotePlan(p string) { tx.planNote = p }

// track charges d to a component in both the slot metrics and the
// transaction's accounted total (so Compute can be derived as residual).
func (tx *Tx) track(c metrics.Component, start time.Time) {
	d := time.Since(start)
	tx.mets.Add(c, d)
	tx.tracked += d
	tx.comp[c] += d
}

// addWait charges blocked time to the transaction's accounted total (so it
// is excluded from the Compute residual).
func (tx *Tx) addWait(d time.Duration) {
	tx.tracked += d
	tx.waited += d
}

// stmt begins a statement: poisoned-transaction check plus snapshot
// refresh (read committed re-snapshots; repeatable read keeps its pin).
func (tx *Tx) stmt() error {
	if !tx.active {
		return ErrTxnDone
	}
	tx.inner.RefreshSnapshot()
	return nil
}

// lockTable takes the table lock once per (table, mode) pair per
// transaction, held to completion (intention locks are cheap and shared).
func (tx *Tx) lockTable(t *Tbl, m lock.Mode) error {
	held := -1
	for i := range tx.tableLocks {
		if tx.tableLocks[i].t == t {
			held = i
			break
		}
	}
	if held >= 0 {
		hm := tx.tableLocks[held].m
		if hm == m || hm == lock.ModeIX && m == lock.ModeIS {
			return nil
		}
	}
	start := time.Now()
	acquired := t.Lock.TryLock(m)
	if !acquired {
		seg := tx.tctx.Waits.Begin(tx.slot, waitevent.EvTableLock)
		err := t.Lock.Lock(m, tx.e.cfg.LockTimeout)
		tx.tctx.Waits.End(tx.slot, waitevent.EvTableLock, seg)
		tx.addWait(time.Since(start))
		if err != nil {
			return fmt.Errorf("table %q: %w", t.Name, err)
		}
	} else {
		tx.track(metrics.CompLock, start)
	}
	if held >= 0 {
		// Upgraded IS->IX: drop the weaker grant.
		if tx.tableLocks[held].m == lock.ModeIS && m == lock.ModeIX {
			t.Lock.Unlock(lock.ModeIS)
			tx.tableLocks[held].m = m
		} else {
			t.Lock.Unlock(m) // duplicate grant
		}
		return nil
	}
	tx.tableLocks = append(tx.tableLocks, tblLock{t: t, m: m})
	return nil
}

func (tx *Tx) releaseTableLocks() {
	for _, tl := range tx.tableLocks {
		tl.t.Lock.Unlock(tl.m)
	}
	tx.tableLocks = tx.tableLocks[:0]
}

// logChange appends a WAL record for a change to pg under its latch,
// advancing the page's GSN (§8).
func (tx *Tx) logChange(pg *table.Page, typ wal.RecordType, tableID uint32, rid rel.RowID, payload []byte) {
	start := time.Now()
	w := tx.e.WAL.Writer(tx.slot)
	pg.GSN = w.NextGSN(pg.GSN)
	rec := wal.Record{Type: typ, GSN: pg.GSN, XID: tx.XID(), TableID: tableID, RowID: uint64(rid), Payload: payload}
	w.Append(&rec)
	tx.track(metrics.CompWAL, start)
}

// logUnstamped appends a WAL record not tied to a hot page (frozen-row
// tombstones).
func (tx *Tx) logUnstamped(typ wal.RecordType, tableID uint32, rid rel.RowID, payload []byte) {
	start := time.Now()
	w := tx.e.WAL.Writer(tx.slot)
	rec := wal.Record{Type: typ, GSN: w.NextGSN(0), XID: tx.XID(), TableID: tableID, RowID: uint64(rid), Payload: payload}
	w.Append(&rec)
	tx.track(metrics.CompWAL, start)
}

// --- Insert --------------------------------------------------------------------

// Insert adds a row and returns its row_id.
func (tx *Tx) Insert(tableName string, row rel.Row) (rel.RowID, error) {
	if err := tx.stmt(); err != nil {
		return 0, err
	}
	t, err := tx.e.Table(tableName)
	if err != nil {
		return 0, err
	}
	return tx.insertRow(t, row, 0)
}

// insertRow appends row and claims its index entries inside the append,
// under the new row's page latch, before the row has an UNDO record or a
// log record: a unique key another row holds rolls the append back, and
// checkUniqueHolder judges that row outside the latch. warmed is the
// frozen row this insert warms (0 for none): the claims take over its
// unique entries, and its non-unique entries are released.
func (tx *Tx) insertRow(t *Tbl, row rel.Row, warmed rel.RowID) (rel.RowID, error) {
	if err := tx.lockTable(t, lock.ModeIX); err != nil {
		return 0, err
	}
	indexes := t.Indexes()
	overs := []takeOver{{rid: warmed}}
	deadline := time.Now().Add(tx.e.cfg.LockTimeout)
	for {
		var held keyHeld
		mark := len(tx.idxOps)
		rid, err := t.Store.Append(row, tx.partition(), &tx.tctx, func(h table.Handle) error {
			for _, ix := range indexes {
				if held = tx.claim(ix, indexKey(ix, row, h.RID), h.RID, overs); held.holder != 0 {
					tx.revertOps(mark, nil)
					return errUniqueHeld
				}
				if warmed != 0 && !ix.Unique {
					k := indexKey(ix, row, warmed)
					releaseKey(ix, k, warmed, nil)
					tx.idxOps = append(tx.idxOps, recIdxOp{idxOp: idxOp{ix: ix, key: k, old: warmed}})
				}
			}
			mvccStart := time.Now()
			tt := h.TwinTable(true)
			rec := tx.inner.AddUndo(t.ID, h.RID, undo.OpInsert, nil, nil)
			tt.Push(h.RID, rec)
			tx.track(metrics.CompMVCC, mvccStart)
			tx.tagOps(mark, rec)
			tx.encBuf = rel.EncodeRow(tx.encBuf[:0], row)
			tx.logChange(h.Pg, wal.RecInsert, t.ID, h.RID, tx.encBuf)
			return nil
		})
		if err == errUniqueHeld {
			if overs, err = tx.checkUniqueHolder(t, held, overs, deadline); err != nil {
				return 0, err
			}
			continue
		}
		return rid, err
	}
}

// keyHeld is a unique key a claim found another row holding.
type keyHeld struct {
	ix     *Index
	key    []byte
	holder rel.RowID
}

// takeOver lets a statement's claims in ix (in every index when ix is
// nil) replace row rid's entry.
type takeOver struct {
	ix  *Index
	rid rel.RowID
}

// errUniqueHeld rolls a write back when a claim finds its key held.
var errUniqueHeld = errors.New("core: unique key held")

// claim claims key → rid in ix over the entry overs grants, and records
// the write for the UNDO record that tagOps ties it to.
func (tx *Tx) claim(ix *Index, key []byte, rid rel.RowID, overs []takeOver) keyHeld {
	var over rel.RowID
	for _, o := range overs {
		if o.ix == nil || o.ix == ix {
			over = o.rid
		}
	}
	op, holder := claimKey(ix, key, rid, over)
	if holder != 0 {
		return keyHeld{ix: ix, key: key, holder: holder}
	}
	tx.idxOps = append(tx.idxOps, recIdxOp{idxOp: op})
	return keyHeld{}
}

// tagOps ties the index writes recorded from mark on to rec.
func (tx *Tx) tagOps(mark int, rec *undo.Record) {
	for i := mark; i < len(tx.idxOps); i++ {
		tx.idxOps[i].rec = rec
	}
}

// revertOps reverts the index writes recorded from mark on, newest first,
// and drops them; h is as idxOp.revert takes it.
func (tx *Tx) revertOps(mark int, h *table.Handle) {
	for i := len(tx.idxOps) - 1; i >= mark; i-- {
		tx.idxOps[i].revert(h)
	}
	clear(tx.idxOps[mark:])
	tx.idxOps = tx.idxOps[:mark]
}

// checkUniqueHolder applies the unique rule to the row holding the key a
// claim needs. If its version visible to this transaction, or its current
// version, has the key, the write is a duplicate. If another transaction
// has written it and not finished, that transaction is waited on, as a
// write conflict is, and decides the next claim. If this transaction
// deleted it or moved it off the key, it joins overs: the next claim
// takes its entry over, and a rollback puts the entry back. Any other
// holder has left the key for good, and its entry is released under its
// page latch, which orders the release with the row's next writer.
func (tx *Tx) checkUniqueHolder(t *Tbl, held keyHeld, overs []takeOver, deadline time.Time) ([]takeOver, error) {
	ix, holder := held.ix, held.holder
	row, dup, err := tx.readRow(t, holder)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return overs, err
	}
	dup = dup && bytes.Equal(indexKey(ix, row, holder), held.key)
	var writer *undo.TxnMeta
	own := false
	err = t.Store.WithRow(holder, true, &tx.tctx, func(h table.Handle) error {
		if head := chainHead(&h); head != nil && !head.Reclaimed() {
			if _, committed := head.EffectiveETS(); head.Meta == tx.inner.Meta {
				own = true
			} else if !committed {
				writer = head.Meta
				return nil
			}
		}
		if !dup && !h.Deleted() {
			dup = bytes.Equal(indexKey(ix, h.Row(), holder), held.key)
		}
		if !dup && !own {
			releaseKey(ix, held.key, holder, nil)
		}
		return nil
	})
	switch {
	case dup:
		return overs, fmt.Errorf("%w: index %q", ErrDuplicate, ix.Name)
	case errors.Is(err, table.ErrFrozen) || errors.Is(err, table.ErrNotFound):
		releaseKey(ix, held.key, holder, nil) // a frozen row not visible is deleted
	case err != nil:
		return overs, err
	case writer != nil && !tx.waitOn(errWait{meta: writer}, deadline):
		return overs, fmt.Errorf("unique index %q: %w", ix.Name, lock.ErrLockTimeout)
	case own:
		overs = append(overs, takeOver{ix: ix, rid: holder})
	}
	return overs, nil
}

// partition maps the slot to its worker's buffer partition.
func (tx *Tx) partition() int {
	if tx.e.cfg.PartitionOf != nil {
		return tx.e.cfg.PartitionOf(tx.slot) % tx.e.Pool.Partitions()
	}
	return tx.slot % tx.e.Pool.Partitions()
}

// --- Read ----------------------------------------------------------------------

// Get returns the row version visible to the transaction, if any.
//
// Borrowed-row contract: the returned row aliases per-transaction scratch
// storage and is valid only until the next operation on this transaction.
// Callers that need values past that point must extract them immediately
// (string values may be retained — they are zero-copy views of
// content-immutable page bytes). The same contract applies to rows passed
// to GetByIndex, ScanIndex, and ScanTable callbacks.
func (tx *Tx) Get(tableName string, rid rel.RowID) (rel.Row, bool, error) {
	if err := tx.stmt(); err != nil {
		return nil, false, err
	}
	t, err := tx.e.Table(tableName)
	if err != nil {
		return nil, false, err
	}
	if err := tx.lockTable(t, lock.ModeIS); err != nil {
		return nil, false, err
	}
	row, ok, err := tx.readRow(t, rid)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	return row, ok, err
}

// readRow performs the visibility-checked point read across the hot/cold
// and frozen layers, materializing into the transaction's point-read
// scratch (borrowed contract, see Get).
func (tx *Tx) readRow(t *Tbl, rid rel.RowID) (rel.Row, bool, error) {
	return tx.readRowInto(t, rid, &tx.rowBuf)
}

// readRowInto is readRow with an explicit scratch buffer: the current
// version is read into *buf (grown to schema width as needed) and the
// visibility check applies before-image deltas in place, so the returned
// row aliases *buf and is valid until the buffer's next reuse. This is the
// allocation-free fast path: no fresh row, no chain walk when the head
// version's stamped commit timestamp is below the global watermark. A
// frozen row is read into *buf too; only its strings are fresh.
func (tx *Tx) readRowInto(t *Tbl, rid rel.RowID, buf *rel.Row) (rel.Row, bool, error) {
	var out rel.Row
	var ok bool
	err := t.Store.WithRow(rid, false, &tx.tctx, func(h table.Handle) error {
		start := time.Now()
		var head *undo.Record
		if tt := h.TwinTable(false); tt != nil {
			head = tt.Head(rid)
		}
		n := t.Schema.NumCols()
		if cap(*buf) < n {
			*buf = make(rel.Row, n)
		}
		cur := (*buf)[:n]
		h.ReadRowInto(cur)
		out, ok = txn.ReadVisibleAt(head, tx.inner.Snapshot(), tx.XID(),
			tx.e.Mgr.Watermark(), cur, h.Deleted(), true, &tx.vis)
		tx.track(metrics.CompMVCC, start)
		return tx.readErr()
	})
	if errors.Is(err, table.ErrFrozen) {
		start := time.Now()
		row, found, ferr := t.Frozen.Get(rid, *buf)
		if found {
			*buf = row
		}
		tx.track(metrics.CompBuffer, start)
		if ferr != nil {
			return nil, false, ferr
		}
		if found && t.Frozen.ShouldWarm(rid) {
			tx.e.requestWarm(t, rid)
		}
		return row, found, nil
	}
	if errors.Is(err, table.ErrNotFound) {
		return nil, false, ErrNotFound
	}
	if err != nil {
		return nil, false, err
	}
	return out, ok, nil
}

// GetByIndex returns the first row whose index key columns equal vals and
// which is visible to the transaction.
func (tx *Tx) GetByIndex(tableName, indexName string, vals ...rel.Value) (rel.RowID, rel.Row, bool, error) {
	if err := tx.stmt(); err != nil {
		return 0, nil, false, err
	}
	t, ix, err := tx.resolveIndex(tableName, indexName)
	if err != nil {
		return 0, nil, false, err
	}
	if err := tx.lockTable(t, lock.ModeIS); err != nil {
		return 0, nil, false, err
	}
	var outRID rel.RowID
	var outRow rel.Row
	found := false
	err = tx.scanIndexRaw(t, ix, vals, func(rid rel.RowID, row rel.Row) bool {
		outRID, outRow, found = rid, row, true
		return false
	})
	return outRID, outRow, found, err
}

// ScanIndex iterates, in key order, the visible rows whose index key
// columns match vals (a full or partial prefix of the index columns),
// until fn returns false.
func (tx *Tx) ScanIndex(tableName, indexName string, vals []rel.Value, fn func(rid rel.RowID, row rel.Row) bool) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	t, ix, err := tx.resolveIndex(tableName, indexName)
	if err != nil {
		return err
	}
	if err := tx.lockTable(t, lock.ModeIS); err != nil {
		return err
	}
	return tx.scanIndexRaw(t, ix, vals, fn)
}

func (tx *Tx) resolveIndex(tableName, indexName string) (*Tbl, *Index, error) {
	t, err := tx.e.Table(tableName)
	if err != nil {
		return nil, nil, err
	}
	ix := t.Index(indexName)
	if ix == nil {
		return nil, nil, fmt.Errorf("%w: %q on %q", ErrNoSuchIndex, indexName, tableName)
	}
	if !ix.Live() {
		return nil, nil, fmt.Errorf("%w: %q on %q", ErrIndexBackfilling, indexName, tableName)
	}
	return t, ix, nil
}

// keyPrefixEnd increments end in place to the smallest byte string greater
// than every string carrying the original prefix, returning the (possibly
// shortened) slice, or nil if the prefix is all 0xFF (no upper bound).
func keyPrefixEnd(end []byte) []byte {
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

func (tx *Tx) scanIndexRaw(t *Tbl, ix *Index, vals []rel.Value, fn func(rid rel.RowID, row rel.Row) bool) error {
	tx.keyBuf = indexPrefix(tx.keyBuf[:0], ix, vals)
	prefix := tx.keyBuf
	// Unique full-key probes take the point-lookup path: one OLC descent
	// instead of a range scan.
	if ix.Unique && len(vals) == len(ix.Cols) {
		latchStart := time.Now()
		v, ok := ix.Tree.Lookup(prefix)
		tx.track(metrics.CompLatch, latchStart)
		if !ok {
			return nil
		}
		row, ok, err := tx.readRow(t, rel.RowID(v))
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		if !ok || row == nil {
			return nil
		}
		for i := range vals {
			if !row[ix.Cols[i]].Equal(vals[i]) {
				return nil // stale entry
			}
		}
		fn(rel.RowID(v), row)
		return nil
	}
	tx.endBuf = append(tx.endBuf[:0], prefix...)
	hi := keyPrefixEnd(tx.endBuf)
	return tx.scanIndexKeys(t, ix, prefix, hi, fn)
}

// ScanIndexRange iterates, in key order, the visible rows whose leading
// index columns equal prefix and whose next index column falls between lo
// and hi (either bound optional, inclusivity per flag), until fn returns
// false. This is the planner's B-Tree range scan: one descent to the lo
// bound, then a leaf walk that stops at the hi bound, instead of scanning
// the whole prefix and filtering.
func (tx *Tx) ScanIndexRange(tableName, indexName string, prefix []rel.Value, lo, hi rel.Value,
	hasLo, hasHi, loIncl, hiIncl bool, fn func(rid rel.RowID, row rel.Row) bool) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	t, ix, err := tx.resolveIndex(tableName, indexName)
	if err != nil {
		return err
	}
	if err := tx.lockTable(t, lock.ModeIS); err != nil {
		return err
	}
	// Key-space bounds from value bounds, exploiting order preservation of
	// rel.EncodeKey. Tree.Scan is [lo, hi): an inclusive value bound on
	// either side converts via keyPrefixEnd, which is the smallest key
	// greater than every entry carrying that value (column encodings are
	// self-delimiting, so no longer value shares the prefix).
	tx.keyBuf = indexPrefix(tx.keyBuf[:0], ix, prefix)
	loKey := tx.keyBuf
	if hasLo {
		loKey = rel.EncodeKey(loKey, lo)
		tx.keyBuf = loKey
		if !loIncl {
			if loKey = keyPrefixEnd(loKey); loKey == nil {
				return nil // no key above an all-0xFF bound
			}
		}
	}
	tx.endBuf = indexPrefix(tx.endBuf[:0], ix, prefix)
	hiKey := tx.endBuf
	if hasHi {
		hiKey = rel.EncodeKey(hiKey, hi)
		tx.endBuf = hiKey
		if hiIncl {
			hiKey = keyPrefixEnd(hiKey) // nil → unbounded above
		}
	} else if len(hiKey) > 0 {
		hiKey = keyPrefixEnd(hiKey) // close off the prefix
	} else {
		hiKey = nil // no prefix, no hi: scan to the end
	}
	return tx.scanIndexKeys(t, ix, loKey, hiKey, fn)
}

// scanIndexKeys is the shared key-range scan core: snapshot the matching
// index entries under [loKey, hiKey), then visibility-check and
// stale-entry-verify each candidate outside the leaf latch.
func (tx *Tx) scanIndexKeys(t *Tbl, ix *Index, loKey, hiKey []byte, fn func(rid rel.RowID, row rel.Row) bool) error {
	// Collect candidates first: the row reads below take page latches and
	// must not run inside the index leaf snapshot loop. The candidate and
	// row scratches are taken off the transaction for the duration so a
	// nested scan or point read from inside fn allocates (or uses) its own
	// rather than clobbering ours.
	cands := tx.cands[:0]
	tx.cands = nil
	candKeys := tx.candKeys[:0]
	candEnds := tx.candEnds[:0]
	tx.candKeys, tx.candEnds = nil, nil
	rowBuf := tx.scanRowBuf
	tx.scanRowBuf = nil
	verifyBuf := tx.verifyBuf
	tx.verifyBuf = nil
	latchStart := time.Now()
	ix.Tree.Scan(loKey, hiKey, func(k []byte, v uint64) bool {
		cands = append(cands, rel.RowID(v))
		candKeys = append(candKeys, k...)
		candEnds = append(candEnds, len(candKeys))
		return true
	})
	tx.track(metrics.CompLatch, latchStart)
	defer func() {
		tx.cands, tx.scanRowBuf = cands, rowBuf
		tx.candKeys, tx.candEnds, tx.verifyBuf = candKeys, candEnds, verifyBuf
	}()
	start := 0
	for i, rid := range cands {
		entry := candKeys[start:candEnds[i]]
		start = candEnds[i]
		row, ok, err := tx.readRowInto(t, rid, &rowBuf)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		if !ok || row == nil {
			continue // stale entry or invisible version
		}
		// Verify the visible version still produces this exact entry key.
		// Comparing against the search prefix alone is not enough: an
		// update to a non-prefix index column leaves the old entry inside
		// the scanned range, pointing at a row that still matches the
		// prefix — the row would be emitted once per entry, and at the
		// stale entry's sort position.
		verifyBuf = indexKeyInto(verifyBuf[:0], ix, row, rid)
		if !bytes.Equal(verifyBuf, entry) {
			continue // stale entry
		}
		if !fn(rid, row) {
			return nil
		}
	}
	return nil
}

// --- Update / Delete -------------------------------------------------------------

// errWait is an internal sentinel carrying what to wait on.
type errWait struct {
	meta *undo.TxnMeta
	ch   <-chan struct{}
}

func (errWait) Error() string { return "core: internal wait sentinel" }

// Update modifies the named columns of a row in place (§6.2's write path).
func (tx *Tx) Update(tableName string, rid rel.RowID, set map[string]rel.Value) error {
	_, err := tx.modify(tableName, rid, set, nil)
	return err
}

// Modify atomically applies a read-modify-write: fn receives the row's
// current version under the page's exclusive latch (after write-conflict
// resolution) and returns the columns to set. It returns the resulting
// row — the engine-level equivalent of UPDATE ... RETURNING, which TPC-C
// needs for counters like D_NEXT_O_ID and the YTD accumulations. fn may
// run more than once if the transaction has to wait and retry.
func (tx *Tx) Modify(tableName string, rid rel.RowID, fn func(cur rel.Row) (map[string]rel.Value, error)) (rel.Row, error) {
	return tx.modify(tableName, rid, nil, fn)
}

// modify is the write path behind Update (a fixed set, no row handed out or
// back) and Modify (fn computes the set from the current row and the
// resulting row is returned).
func (tx *Tx) modify(tableName string, rid rel.RowID, set map[string]rel.Value, fn func(cur rel.Row) (map[string]rel.Value, error)) (rel.Row, error) {
	if err := tx.stmt(); err != nil {
		return nil, err
	}
	t, err := tx.e.Table(tableName)
	if err != nil {
		return nil, err
	}
	if err := tx.lockTable(t, lock.ModeIX); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(tx.e.cfg.LockTimeout)
	var overs []takeOver
	for {
		row, held, err := tx.modifyOnce(t, rid, set, fn, overs)
		var w errWait
		switch {
		case errors.Is(err, table.ErrFrozen):
			// §5.2 case 3: a write to a frozen row warms it into hot
			// storage first, and the next try updates the hot copy.
			if rid, err = tx.warmFrozenRow(t, rid); err != nil {
				return nil, err
			}
		case err == errUniqueHeld:
			if overs, err = tx.checkUniqueHolder(t, held, overs, deadline); err != nil {
				return nil, err
			}
		case !errors.As(err, &w):
			return row, err
		case !tx.waitOn(w, deadline):
			return nil, fmt.Errorf("update %q row %d: %w", tableName, rid, lock.ErrLockTimeout)
		default:
			tx.inner.RefreshSnapshot()
		}
	}
}

// waitOn performs the low-urgency wait for a conflict (§7.1): transaction-
// ID locks or tuple-lock waiter channels. The blocked time is accounted as
// stall, not as locking work (a waiting transaction executes nothing).
func (tx *Tx) waitOn(w errWait, deadline time.Time) bool {
	tx.e.stats.TupleLockWaits.Add(1)
	ch := w.ch
	if w.meta != nil {
		ch = w.meta.Done()
	}
	return tx.park(ch, waitevent.EvTupleLock, deadline)
}

// waitCommit parks a read on a writer that is Preparing at or below the
// transaction's snapshot until the writer's commit is durable or its abort
// published; the visibility check then decides again. The page latch the
// read may hold is safe: a committing writer takes no latch before its
// Done closes. Like a wait on a transaction-ID lock it gives up at the
// lock timeout (a commit stuck in its flush), and the read then fails.
func (tx *Tx) waitCommit(m *undo.TxnMeta) bool {
	tx.e.stats.CommitDepWaits.Add(1)
	if tx.park(m.Done(), waitevent.EvCommitDep, time.Now().Add(tx.e.cfg.LockTimeout)) {
		return true
	}
	tx.visErr = fmt.Errorf("core: read waiting for the commit of transaction %d: %w", m.XID, lock.ErrLockTimeout)
	return false
}

// readErr returns, and clears, the error of a read that gave up waiting
// for a commit.
func (tx *Tx) readErr() error {
	err := tx.visErr
	tx.visErr = nil
	return err
}

// park is the one low-urgency wait: until ch closes (true) or the deadline
// passes (false), stamped as ev and accounted as stall.
func (tx *Tx) park(ch <-chan struct{}, ev waitevent.Event, deadline time.Time) bool {
	start := time.Now()
	defer func() {
		tx.addWait(time.Since(start))
	}()
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	seg := tx.tctx.Waits.Begin(tx.slot, ev)
	defer tx.tctx.Waits.End(tx.slot, ev, seg)
	if tx.waitLow != nil {
		return tx.waitLow(ch, remaining)
	}
	return tx.waitTimer.Wait(ch, remaining)
}

// lockRow is the prologue of an in-place write to h's row: it resolves a
// write conflict and takes the tuple lock, returning the row's twin table,
// chain head and entry. errWait means wait and retry; a deleted row is
// ErrNotFound.
func (tx *Tx) lockRow(h *table.Handle) (*undo.TwinTable, *undo.Record, *undo.TwinEntry, error) {
	mvccStart := time.Now()
	tt := h.TwinTable(true)
	head := tt.Head(h.RID)
	waitMeta, err := txn.CheckWriteConflict(head, &tx.inner)
	tx.track(metrics.CompMVCC, mvccStart)
	switch {
	case err != nil:
		return nil, nil, nil, err
	case waitMeta != nil:
		return nil, nil, nil, errWait{meta: waitMeta}
	case h.Deleted():
		return nil, nil, nil, ErrNotFound
	}
	lockStart := time.Now()
	entry := tt.Entry(h.RID, true)
	if !lock.TryLockTuple(entry, true, tx.XID()) {
		err = errWait{ch: entry.AddWaiter()}
	}
	tx.track(metrics.CompLock, lockStart)
	return tt, head, entry, err
}

// unlockRow releases the tuple lock right after the write (§7.2).
func (tx *Tx) unlockRow(entry *undo.TwinEntry) {
	lockStart := time.Now()
	lock.UnlockTuple(entry, true)
	tx.track(metrics.CompLock, lockStart)
}

func (tx *Tx) modifyOnce(t *Tbl, rid rel.RowID, set map[string]rel.Value, fn func(cur rel.Row) (map[string]rel.Value, error),
	overs []takeOver) (rel.Row, keyHeld, error) {
	var result rel.Row
	var held keyHeld
	err := t.Store.WithRow(rid, true, &tx.tctx, func(h table.Handle) error {
		tt, head, entry, err := tx.lockRow(&h)
		if err != nil {
			return err
		}

		set := set
		if fn != nil {
			if set, err = fn(h.Row()); err != nil {
				lock.UnlockTuple(entry, true)
				return err
			}
		}
		cols, vals, err := tx.resolveSet(t.Schema, set)
		if err != nil {
			lock.UnlockTuple(entry, true)
			return err
		}

		// Claim the new key of every index the update changes before the
		// in-place write, as an insert claims before its UNDO record. The
		// old entry stays for older snapshots until GC releases it.
		mark := len(tx.idxOps)
		var newRow rel.Row
		for _, ix := range t.Indexes() {
			if !keyChanges(ix, &h, cols, vals) {
				continue
			}
			if newRow == nil {
				newRow = h.Row()
				for i, c := range cols {
					newRow[c] = vals[i]
				}
			}
			if held = tx.claim(ix, indexKey(ix, newRow, rid), rid, overs); held.holder != 0 {
				tx.revertOps(mark, &h)
				lock.UnlockTuple(entry, true)
				return errUniqueHeld
			}
		}

		// Before-image delta, version chain push, in-place update.
		mvccStart := time.Now()
		delta := make([]undo.ColVal, len(cols))
		for i, c := range cols {
			delta[i] = undo.ColVal{Col: c, Val: h.Col(c)}
		}
		rec := tx.inner.AddUndo(t.ID, rid, undo.OpUpdate, delta, head)
		tt.Push(rid, rec)
		tx.tagOps(mark, rec)
		for i, c := range cols {
			h.SetCol(c, vals[i])
		}
		tx.track(metrics.CompMVCC, mvccStart)
		tx.encBuf = rel.EncodeDelta(tx.encBuf[:0], cols, vals)
		tx.logChange(h.Pg, wal.RecUpdate, t.ID, rid, tx.encBuf)
		if fn != nil {
			result = h.Row()
		}

		tx.unlockRow(entry)
		return nil
	})
	if errors.Is(err, table.ErrNotFound) {
		return nil, held, ErrNotFound
	}
	return result, held, err
}

// keyChanges reports whether writing vals to cols changes ix's key of the
// row h reads.
func keyChanges(ix *Index, h *table.Handle, cols []int, vals rel.Row) bool {
	for j, c := range cols {
		if slices.Contains(ix.Cols, c) && !h.Col(c).Equal(vals[j]) {
			return true
		}
	}
	return false
}

// Delete tombstones a row (physical removal happens at GC, §7.3).
func (tx *Tx) Delete(tableName string, rid rel.RowID) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	t, err := tx.e.Table(tableName)
	if err != nil {
		return err
	}
	if err := tx.lockTable(t, lock.ModeIX); err != nil {
		return err
	}
	deadline := time.Now().Add(tx.e.cfg.LockTimeout)
	for {
		err := tx.deleteOnce(t, rid)
		var w errWait
		if !errors.As(err, &w) {
			return err
		}
		if !tx.waitOn(w, deadline) {
			return fmt.Errorf("delete %q row %d: %w", tableName, rid, lock.ErrLockTimeout)
		}
		tx.inner.RefreshSnapshot()
	}
}

func (tx *Tx) deleteOnce(t *Tbl, rid rel.RowID) error {
	err := t.Store.WithRow(rid, true, &tx.tctx, func(h table.Handle) error {
		tt, head, entry, err := tx.lockRow(&h)
		if err != nil {
			return err
		}

		mvccStart := time.Now()
		rec := tx.inner.AddUndo(t.ID, rid, undo.OpDelete, nil, head)
		tt.Push(rid, rec)
		h.SetDeleted(true)
		tx.track(metrics.CompMVCC, mvccStart)
		tx.logChange(h.Pg, wal.RecDelete, t.ID, rid, nil)

		tx.unlockRow(entry)
		return nil
	})
	if errors.Is(err, table.ErrFrozen) {
		newRID, werr := tx.warmFrozenRow(t, rid)
		if werr != nil {
			return werr
		}
		return tx.deleteOnce(t, newRID)
	}
	if errors.Is(err, table.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// warmFrozenRow moves one frozen row into hot storage within this
// transaction (§5.2 case 3): tombstone the frozen copy (WAL-logged so redo
// erases the replayed hot original), and insert the hot copy with a fresh
// row_id, which takes the frozen row's index entries over.
func (tx *Tx) warmFrozenRow(t *Tbl, rid rel.RowID) (rel.RowID, error) {
	row, found, err := t.Frozen.Get(rid, nil)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, ErrNotFound
	}
	live, err := t.Frozen.MarkDeleted(rid)
	if err != nil {
		return 0, err
	}
	if !live {
		return 0, ErrNotFound // lost a warm race; caller re-finds via index
	}
	tx.frozenRestores = append(tx.frozenRestores, frozenRestore{t: t, rid: rid})
	tx.logUnstamped(wal.RecDelete, t.ID, rid, nil)

	return tx.insertRow(t, row, rid)
}

// resolveSet orders a SET by column name and resolves it to positions and
// values, in the transaction's scratch lists (valid until its next call).
func (tx *Tx) resolveSet(s *rel.Schema, set map[string]rel.Value) ([]int, rel.Row, error) {
	names := tx.setNames[:0]
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	cols, vals := tx.setCols[:0], tx.setVals[:0]
	for _, n := range names {
		c := s.ColIndex(n)
		if c < 0 {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, n)
		}
		if set[n].Kind != s.Cols[c].Type {
			return nil, nil, fmt.Errorf("core: column %q: wrong value kind", n)
		}
		cols = append(cols, c)
		vals = append(vals, set[n])
	}
	tx.setNames, tx.setCols, tx.setVals = names, cols, vals
	return cols, vals, nil
}

// --- Commit / Rollback -------------------------------------------------------------

// Commit makes the transaction durable and visible. Read-only transactions
// skip the WAL entirely.
func (tx *Tx) Commit() error {
	if !tx.active {
		return ErrTxnDone
	}
	defer tx.finish()
	cts := tx.inner.PrepareCommit()
	if len(tx.inner.Records) > 0 {
		walStart := time.Now()
		w := tx.e.WAL.Writer(tx.slot)
		cr := wal.Record{Type: wal.RecCommit, GSN: w.NextGSN(0), XID: tx.XID(), RowID: cts}
		w.Append(&cr)
		tx.track(metrics.CompWAL, walStart)
		// The flush itself is an I/O stall, accounted separately from WAL
		// CPU work.
		flushStart := time.Now()
		err := w.Flush()
		tx.addWait(time.Since(flushStart))
		if err != nil {
			tx.inner.AbortPrepared()
			tx.rollbackChanges()
			tx.inner.FinalizeAbort()
			tx.releaseTableLocks()
			tx.finishMetrics(false)
			return fmt.Errorf("core: commit flush: %w", err)
		}
	}
	mvccStart := time.Now()
	tx.inner.FinalizeCommit(cts)
	tx.track(metrics.CompMVCC, mvccStart)
	tx.releaseTableLocks()
	tx.finishMetrics(true)
	return nil
}

// Rollback aborts the transaction, restoring every before image and
// unlinking its version-chain records; its log records are discarded.
func (tx *Tx) Rollback() error {
	if !tx.active {
		return ErrTxnDone
	}
	defer tx.finish()
	tx.rollbackChanges()
	tx.e.WAL.Writer(tx.slot).Discard()
	tx.inner.FinalizeAbort()
	tx.releaseTableLocks()
	tx.finishMetrics(false)
	return nil
}

// finishMetrics closes out the transaction's accounting: the untracked
// residual is charged to Compute, the outcome counter bumps, and the
// latency histogram and the slow-transaction log observe the full
// breakdown.
func (tx *Tx) finishMetrics(committed bool) {
	total := time.Since(tx.started)
	if rest := total - tx.tracked; rest > 0 {
		tx.mets.Add(metrics.CompCompute, rest)
		tx.comp[metrics.CompCompute] += rest
	}
	if committed {
		tx.e.stats.Commits.Add(1)
	} else {
		tx.e.stats.Aborts.Add(1)
	}
	// Flush the visibility counters accumulated tx-locally (three shared
	// atomic adds per transaction instead of per read).
	if tx.vis.Fast != 0 {
		tx.e.stats.MVCCFastPath.Add(tx.vis.Fast)
	}
	if tx.vis.Walks != 0 {
		tx.e.stats.MVCCChainWalks.Add(tx.vis.Walks)
		tx.e.stats.MVCCChainLinks.Add(tx.vis.Links)
	}
	tx.mets.Hist.Observe(total)
	tx.e.stats.SlowLog.Offer(metrics.TxnTrace{
		XID:       tx.XID(),
		Slot:      tx.slot,
		Start:     tx.started,
		Total:     total,
		Wait:      tx.waited,
		Committed: committed,
		Comp:      tx.comp,
		Stmt:      tx.stmtFP,
		Plan:      tx.planNote,
	})
}

// rollbackChanges undoes the transaction's physical effects in reverse
// order. UNDO records are marked dead (immediately reclaimable).
func (tx *Tx) rollbackChanges() {
	recs := tx.inner.Records
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		// rec's index writes are the tail of idxOps: each record's writes
		// are one group, and those of the records after rec are reverted.
		opStart := len(tx.idxOps)
		for opStart > 0 && tx.idxOps[opStart-1].rec == rec {
			opStart--
		}
		if t := tx.e.TableByID(rec.TableID); t != nil {
			t.Store.WithRow(rec.RowID, true, &tx.tctx, func(h table.Handle) error {
				switch rec.Op {
				case undo.OpUpdate:
					for _, cv := range rec.Delta {
						h.SetCol(cv.Col, cv.Val)
					}
				case undo.OpDelete:
					h.SetDeleted(false)
				}
				if tt := h.TwinTable(false); tt != nil {
					tt.Pop(rec.RowID, rec)
				}
				// One latch section: between popping an insert's record and
				// erasing its slot a scan would read the row as committed,
				// and a release keeps a key the restored version has.
				if rec.Op == undo.OpInsert {
					tx.revertOps(opStart, nil)
					return h.Remove()
				}
				tx.revertOps(opStart, &h)
				return nil
			})
		}
		tx.revertOps(opStart, nil) // writes for a row no latch reached
		rec.MarkDead()
	}
	// Clear frozen tombstones set by warming.
	for _, fr := range tx.frozenRestores {
		fr.t.Frozen.Undelete(fr.rid)
	}
}
