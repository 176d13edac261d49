// Package txn implements PhoebeDB's transaction management (§6):
// PostgreSQL-compatible snapshot isolation levels (read committed and
// repeatable read) with O(1) snapshot acquisition from the global logical
// clock, the MVCC visibility check of Algorithm 1 over in-memory UNDO
// version chains, the write-conflict rules of §6.2, and the GC watermarks
// of §7.3.
//
// Commit atomicity: PrepareCommit marks the transaction's meta Preparing
// and draws the commit timestamp, the engine persists the WAL commit
// record, and FinalizeCommit flips the meta to Committed — at that instant
// every version the transaction wrote becomes visible at its cts, without
// waiting for the per-record ets stamping scan that follows (readers
// resolve XID ets fields through the meta). A reader whose snapshot is at
// or above the cts of a Preparing writer waits for the flush to end
// (undo.Record.VisibleAt), so no snapshot sees the commit both before and
// after it happens.
package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"phoebedb/internal/clock"
	"phoebedb/internal/metrics"
	"phoebedb/internal/rel"
	"phoebedb/internal/undo"
)

// Isolation is a transaction isolation level.
type Isolation int

const (
	// ReadCommitted refreshes the snapshot at every statement.
	ReadCommitted Isolation = iota
	// RepeatableRead pins the snapshot at the transaction's first read and
	// aborts on write-write conflicts with transactions committed after it
	// (first-updater-wins).
	RepeatableRead
)

// String implements fmt.Stringer.
func (i Isolation) String() string {
	switch i {
	case ReadCommitted:
		return "read committed"
	case RepeatableRead:
		return "repeatable read"
	default:
		return "isolation?"
	}
}

// ErrWriteConflict reports a repeatable-read write-write conflict: the
// tuple's newest version committed after the transaction's snapshot.
var ErrWriteConflict = errors.New("txn: write-write conflict (serialization failure)")

// paddedUint64 separates per-slot words onto distinct cache lines.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Manager owns the clock, the per-slot UNDO arenas, and active-transaction
// tracking. Slots include both pool task slots and reserved session slots.
type Manager struct {
	Clock  *clock.Clock
	arenas []*undo.Arena
	// activeStart[slot] is the start timestamp of the slot's running
	// transaction, 0 when idle. A slot runs one transaction at a time, so
	// one word per slot suffices; the GC watermark scan reads them all.
	activeStart []paddedUint64

	// watermark caches the min-active-start lower bound for the visibility
	// fast path. Any value ever stored here remains valid forever: slots
	// active at refresh time have start >= the scanned minimum, and every
	// transaction beginning later draws a larger timestamp from the clock,
	// so snapshot >= start >= watermark always holds. It therefore only
	// advances, and readers may use an arbitrarily stale copy.
	watermark atomic.Uint64
	// lastWMRefresh is the clock value at the last watermark refresh; Begin
	// re-scans at most once per watermarkRefreshTicks clock ticks so
	// read-heavy workloads keep the fast path warm even when GC is idle.
	lastWMRefresh atomic.Uint64
}

// maxKeptRecords bounds the UNDO record list a slot's Txn keeps from one
// transaction to the next.
const maxKeptRecords = 1024

// watermarkRefreshTicks bounds how often Begin rescans the active-slot
// array for the visibility watermark (amortizing the O(slots) scan).
const watermarkRefreshTicks = 1024

// NewManager creates a manager with the given slot count.
func NewManager(slots int) *Manager {
	m := &Manager{Clock: clock.New(), activeStart: make([]paddedUint64, slots)}
	for i := 0; i < slots; i++ {
		m.arenas = append(m.arenas, undo.NewArena(i))
	}
	return m
}

// NumSlots returns the slot count.
func (m *Manager) NumSlots() int { return len(m.arenas) }

// Arena returns the slot's UNDO arena.
func (m *Manager) Arena(slot int) *undo.Arena { return m.arenas[slot] }

// Txn is one running transaction, bound to a task slot. The value is owned
// by its slot and reused: Begin resets it in place, keeping the Records
// backing array.
type Txn struct {
	// Meta is the transaction's shared commit state and transaction-ID lock.
	// It is nil until the first AddUndo: a version record is the only thing
	// that can point another transaction at this one, so a transaction that
	// wrote nothing allocates none. Each writing transaction gets a fresh
	// one — records outlive the Txn value's reuse through it.
	Meta    *undo.TxnMeta
	StartTS uint64
	Iso     Isolation
	Slot    int

	mgr      *Manager
	xid      uint64
	snapshot uint64
	finished bool

	// Records are the transaction's UNDO records in creation order; the
	// commit-phase stamping scan walks them once (§6.2).
	Records []*undo.Record
}

// Begin starts a transaction on the slot in t, resetting it in place. The
// slot must be idle: t's previous transaction (if any) has finished.
func (m *Manager) Begin(t *Txn, slot int, iso Isolation) {
	start := m.Clock.Next()
	m.activeStart[slot].v.Store(start)
	if start-m.lastWMRefresh.Load() >= watermarkRefreshTicks {
		m.lastWMRefresh.Store(start)
		m.RefreshWatermark()
	}
	*t = Txn{
		StartTS: start,
		Iso:     iso,
		Slot:    slot,
		mgr:     m,
		xid:     clock.MakeXID(start),
		Records: t.Records[:0],
	}
}

// XID returns the transaction ID.
func (t *Txn) XID() uint64 { return t.xid }

// Snapshot returns the transaction's current snapshot, taking one if none
// is active. Acquisition is a single atomic clock load — O(1) (§6.1).
func (t *Txn) Snapshot() uint64 {
	if t.snapshot == 0 {
		t.snapshot = t.mgr.Clock.Snapshot()
	}
	return t.snapshot
}

// RefreshSnapshot begins a new statement: under read committed the
// snapshot advances; under repeatable read it is pinned.
func (t *Txn) RefreshSnapshot() {
	if t.Iso == ReadCommitted {
		t.snapshot = t.mgr.Clock.Snapshot()
	}
}

// AddUndo appends a before-image record to the slot's arena, linking prev
// as the next-older version, and registers it for commit stamping.
func (t *Txn) AddUndo(tableID uint32, rid rel.RowID, op undo.Op, delta []undo.ColVal, prev *undo.Record) *undo.Record {
	if t.Meta == nil {
		t.Meta = undo.NewTxnMeta(t.xid)
	}
	rec := t.mgr.arenas[t.Slot].New(t.Meta, tableID, rid, op, delta, prev)
	t.Records = append(t.Records, rec)
	return rec
}

// PrepareCommit marks a writing transaction Preparing and draws its
// commit timestamp. The engine must persist the commit WAL record before
// calling FinalizeCommit, or call AbortPrepared if it cannot.
func (t *Txn) PrepareCommit() uint64 {
	if t.Meta == nil {
		return t.mgr.Clock.Next()
	}
	t.Meta.Prepare()
	cts := t.mgr.Clock.Next()
	t.Meta.SetCTS(cts)
	return cts
}

// AbortPrepared publishes the abort of a prepared transaction whose commit
// record could not be made durable, before its changes are rolled back:
// readers waiting on the commit may hold page latches the rollback needs,
// and once woken they walk past its versions. FinalizeAbort follows the
// rollback.
func (t *Txn) AbortPrepared() {
	t.Meta.Abort()
	t.Meta.Finish()
}

// FinalizeCommit publishes the commit: all versions become visible at cts
// atomically via the meta, the ets fields are stamped in a single scan, the
// slot is marked idle, and the transaction-ID lock is released (waking
// every waiter at once, §7.2).
func (t *Txn) FinalizeCommit(cts uint64) {
	if t.finished {
		panic("txn: FinalizeCommit on finished transaction")
	}
	t.finished = true
	if t.Meta == nil { // wrote nothing: no version names this transaction
		t.mgr.activeStart[t.Slot].v.Store(0)
		return
	}
	t.Meta.Commit(cts)
	for _, r := range t.Records {
		r.SetETS(cts)
	}
	t.mgr.activeStart[t.Slot].v.Store(0)
	t.Meta.Finish()
	t.releaseRecords()
}

// releaseRecords empties the record list of a finished transaction, so the
// idle slot's Txn pins no UNDO storage (reclaimed records would otherwise
// stay reachable until the slot's next Begin), keeping the array for the
// next transaction unless a bulk one grew it.
func (t *Txn) releaseRecords() {
	clear(t.Records)
	t.Records = t.Records[:0]
	if cap(t.Records) > maxKeptRecords {
		t.Records = nil
	}
}

// FinalizeAbort publishes the abort after the engine has rolled back the
// transaction's physical changes and unlinked its records from version
// chains (marking them dead).
func (t *Txn) FinalizeAbort() {
	if t.finished {
		panic("txn: FinalizeAbort on finished transaction")
	}
	t.finished = true
	if t.Meta == nil {
		t.mgr.activeStart[t.Slot].v.Store(0)
		return
	}
	released := t.Meta.Status() == undo.StatusAborted // by AbortPrepared
	t.Meta.Abort()
	t.mgr.activeStart[t.Slot].v.Store(0)
	if !released {
		t.Meta.Finish()
	}
	t.releaseRecords()
}

// --- GC watermarks (§7.3) ---------------------------------------------------

// ActiveCount returns the number of running transactions.
func (m *Manager) ActiveCount() int {
	n := 0
	for i := range m.activeStart {
		if m.activeStart[i].v.Load() != 0 {
			n++
		}
	}
	return n
}

// ActiveTxn describes one running transaction (phoebe_stat_activity).
type ActiveTxn struct {
	Slot    int
	XID     uint64
	StartTS uint64
}

// ActiveSnapshot lists the running transactions at scrape time. Each slot's
// word is read once; a transaction beginning or ending mid-scan appears or
// not, but entries are never torn.
func (m *Manager) ActiveSnapshot() []ActiveTxn {
	var out []ActiveTxn
	for i := range m.activeStart {
		if s := m.activeStart[i].v.Load(); s != 0 {
			out = append(out, ActiveTxn{Slot: i, XID: clock.MakeXID(s), StartTS: s})
		}
	}
	return out
}

// LiveUndo sums the unreclaimed UNDO records across all arenas — the GC
// backlog gauge.
func (m *Manager) LiveUndo() int {
	n := 0
	for _, a := range m.arenas {
		n += a.Live()
	}
	return n
}

// MinActiveStartTS returns the minimum start timestamp among active
// transactions, or the current clock value if none are active. UNDO
// records of transactions committed before this are reclaimable, because
// every snapshot is taken at or after its transaction's start.
func (m *Manager) MinActiveStartTS() uint64 {
	min := m.Clock.Now() + 1
	for i := range m.activeStart {
		if s := m.activeStart[i].v.Load(); s != 0 && s < min {
			min = s
		}
	}
	return min
}

// Watermark returns the cached min-active-snapshot watermark: every active
// (and future) transaction's snapshot is at or above the returned value, so
// a version whose commit timestamp is at or below it is visible to every
// snapshot. The cached value may lag the true minimum — staleness is always
// conservative (the fast path just fires less often).
func (m *Manager) Watermark() uint64 { return m.watermark.Load() }

// RefreshWatermark recomputes the cached watermark from the active-slot
// scan, advancing it monotonically, and returns the (possibly newer) value.
// Called from GC rounds (which need the same scan anyway) and amortized
// from Begin.
func (m *Manager) RefreshWatermark() uint64 {
	w := m.MinActiveStartTS()
	for {
		cur := m.watermark.Load()
		if w <= cur {
			return cur
		}
		if m.watermark.CompareAndSwap(cur, w) {
			return w
		}
	}
}

// MaxFrozenXID returns the highest XID such that every transaction with an
// XID at or below it is globally visible: the constraint is the oldest
// unreclaimed UNDO record and the oldest active transaction across slots.
// Twin tables whose writers are all at or below this watermark may be
// dropped.
func (m *Manager) MaxFrozenXID() uint64 {
	minTS := m.Clock.Now() + 1
	for i := range m.activeStart {
		if s := m.activeStart[i].v.Load(); s != 0 && s < minTS {
			minTS = s
		}
	}
	for _, a := range m.arenas {
		if x := a.FirstUnreclaimedXID(); x != 0 {
			if ts := clock.StartTS(x); ts < minTS {
				minTS = ts
			}
		}
	}
	if minTS == 0 {
		return 0
	}
	return clock.MakeXID(minTS - 1)
}

// CollectGarbage runs one UNDO GC round across all arenas (§7.3),
// reclaiming records of transactions globally invisible to every active
// snapshot. onReclaim receives each reclaimed record (deleted-tuple GC).
// Returns the number of records reclaimed.
func (m *Manager) CollectGarbage(onReclaim func(*undo.Record)) int {
	watermark := m.RefreshWatermark()
	n := 0
	for _, a := range m.arenas {
		n += a.Reclaim(watermark, onReclaim)
	}
	return n
}

// --- Visibility (Algorithm 1) -------------------------------------------------

// ReadVisible reconstructs the tuple version visible to (snapshot, xid)
// from the current tuple image and its version chain, implementing
// Algorithm 1 extended with existence tracking for inserts and deletes.
// current is the newest physical image (not retained; a copy is made
// before deltas are applied), currentDeleted its tombstone flag. The bool
// reports whether a visible version exists. It is the reference the
// property test holds ReadVisibleAt to; the engine calls only the latter.
// A head whose writer is Preparing at or below snapshot is waited out on
// its Done.
func ReadVisible(head *undo.Record, snapshot, xid uint64, current rel.Row, currentDeleted bool) (rel.Row, bool) {
	// Lines 1-4: no chain, reclaimed chain, or newest version visible.
	if head == nil || head.Reclaimed() {
		if currentDeleted {
			return nil, false
		}
		return current, true
	}
	if head.Meta.XID == xid || head.VisibleAt(snapshot, nil) {
		if currentDeleted {
			return nil, false
		}
		return current, true
	}
	// Lines 5-9: assemble before-image deltas until sts <= snapshot.
	row := current.Clone()
	exists := !currentDeleted
	for cur := head; cur != nil && !cur.Reclaimed(); cur = cur.Prev {
		switch cur.Op {
		case undo.OpUpdate:
			for _, cv := range cur.Delta {
				row[cv.Col] = cv.Val
			}
		case undo.OpDelete:
			exists = true // undoing a delete resurrects the row
		case undo.OpInsert:
			exists = false // undoing an insert removes the row
		}
		// sts may hold an XID (own earlier write) — its MSB makes it
		// compare greater than any snapshot, continuing the walk.
		if cur.STS() <= snapshot {
			break
		}
	}
	if !exists {
		return nil, false
	}
	return row, true
}

// VisStats accumulates visibility-check outcomes for one transaction.
// Plain (non-atomic) counters: a transaction runs on one slot; the engine
// flushes them into its shared atomics once at finish.
type VisStats struct {
	// Fast counts reads satisfied by the watermark fast path: the head
	// version's stamped commit timestamp was below the global watermark, so
	// the newest image was returned without loading the TxnMeta or walking
	// the chain.
	Fast int64
	// Walks counts reads that reconstructed an older version by walking
	// the chain; Links is the total links traversed across those walks
	// (per-walk length = delta of Links around the call).
	Walks int64
	Links int64
	// ChainLen, when non-nil, observes each walk's link count as a
	// dimensionless log2-bucketed histogram (1 "nanosecond" = 1 link).
	// Unlike the scalar counters it is observed per walk, not flushed at
	// transaction finish — walks are already the slow path, so the few
	// atomic adds are noise there.
	ChainLen *metrics.Histogram
	// Wait, when non-nil, parks the reader on a writer that is Preparing
	// at or below its snapshot and reports whether the writer finished
	// (see undo.Record.VisibleAt); nil blocks on the writer's Done.
	Wait func(*undo.TxnMeta) bool
}

// ReadVisibleAt is the production visibility check: ReadVisible extended
// with the watermark fast path, caller-owned current images, and outcome
// accounting.
//
// Fast path: if the head's raw ets already holds a plain (stamped) commit
// timestamp strictly below watermark, the newest image is visible to every
// possible snapshot — no TxnMeta load, no chain walk. The comparison is
// strict because Begin publishes a slot's start timestamp one step after
// drawing it: a scan can miss that in-flight transaction and return a
// watermark one above its eventual snapshot (the same margin the GC
// reclaim condition uses).
//
// Ownership: when ownsCurrent is true the caller passes a scratch image it
// owns (e.g. a reused per-slot row buffer) and chain walks apply deltas to
// it in place instead of cloning — the zero-allocation read path. The
// returned row aliases current either way; callers hand it out only under
// a borrowed contract (valid until the next operation that refills the
// scratch).
//
// st may be nil. Equivalence with ReadVisible (same row bytes, same
// existence verdict, for any watermark that is a valid lower bound on
// snapshot) is asserted by the property test in visibility_prop_test.go.
func ReadVisibleAt(head *undo.Record, snapshot, xid, watermark uint64, current rel.Row, currentDeleted bool, ownsCurrent bool, st *VisStats) (rel.Row, bool) {
	if head == nil || head.Reclaimed() {
		if currentDeleted {
			return nil, false
		}
		return current, true
	}
	ets := head.ETS()
	if !clock.IsXID(ets) {
		if ets < watermark {
			if st != nil {
				st.Fast++
			}
			if currentDeleted {
				return nil, false
			}
			return current, true
		}
		if ets <= snapshot {
			// Head visible to this snapshot (but not yet globally): still
			// no meta load and no walk, just not a watermark hit.
			if currentDeleted {
				return nil, false
			}
			return current, true
		}
	} else {
		var wait func(*undo.TxnMeta) bool
		if st != nil {
			wait = st.Wait
		}
		if head.Meta.XID == xid || head.VisibleAt(snapshot, wait) {
			if currentDeleted {
				return nil, false
			}
			return current, true
		}
	}
	// Chain walk: assemble before-image deltas until sts <= snapshot.
	row := current
	if !ownsCurrent {
		row = current.Clone()
	}
	exists := !currentDeleted
	links := int64(0)
	for cur := head; cur != nil && !cur.Reclaimed(); cur = cur.Prev {
		links++
		switch cur.Op {
		case undo.OpUpdate:
			for _, cv := range cur.Delta {
				row[cv.Col] = cv.Val
			}
		case undo.OpDelete:
			exists = true // undoing a delete resurrects the row
		case undo.OpInsert:
			exists = false // undoing an insert removes the row
		}
		// sts may hold an XID (own earlier write) — its MSB makes it
		// compare greater than any snapshot, continuing the walk.
		if cur.STS() <= snapshot {
			break
		}
	}
	if st != nil {
		st.Walks++
		st.Links += links
		if st.ChainLen != nil {
			st.ChainLen.Observe(time.Duration(links))
		}
	}
	if !exists {
		return nil, false
	}
	return row, true
}

// CheckWriteConflict evaluates §6.2's write rules against a tuple's chain
// head before the transaction modifies it. Results:
//
//   - (nil, nil): proceed with the write.
//   - (meta, nil): the newest version belongs to a live foreign
//     transaction; wait on its transaction-ID lock, then retry.
//   - (nil, ErrWriteConflict): repeatable read saw a version committed
//     after its snapshot; the transaction must abort.
//
// A Preparing writer is live: the caller waits on it like on an active one,
// and the retry then judges the committed version by its cts, so the
// repeatable-read clause sees the same commit instant readers do.
func CheckWriteConflict(head *undo.Record, t *Txn) (*undo.TxnMeta, error) {
	if head == nil || head.Reclaimed() {
		return nil, nil
	}
	ets, committed := head.EffectiveETS()
	if !committed {
		if head.Meta == t.Meta {
			return nil, nil // own earlier write
		}
		// A live writer, or a rollback still unlinking: a failed commit
		// flush publishes its abort (closing Done) before it rolls back, so
		// the caller's wait may return at once and retry until the unlink.
		return head.Meta, nil
	}
	if t.Iso == RepeatableRead && ets > t.Snapshot() {
		return nil, fmt.Errorf("%w: tuple %d committed at %d after snapshot %d",
			ErrWriteConflict, head.RowID, ets, t.Snapshot())
	}
	return nil, nil
}
