// Package undo implements PhoebeDB's in-memory UNDO log (§6.2): per-task-
// slot arenas of before-image delta records, version chains linking a
// tuple's history newest-to-oldest, the page-level twin table that maps
// tuples to their chains, and the queue-like reclamation that makes garbage
// collection a per-slot pointer advance (§7.3).
//
// Every record carries two timestamps. sts is the commit timestamp of the
// before image (the previous record's ets, or 0 if that record was already
// reclaimed); ets starts as the writing transaction's XID and becomes the
// transaction's commit timestamp. Storing sts explicitly is what lets a
// record be reclaimed without checking whether any active transaction still
// needs its predecessor — the paper's key GC simplification.
//
// A record also references its transaction's TxnMeta. This closes the
// commit-atomicity window: a transaction becomes durable-visible the
// instant its meta flips to Committed with a commit timestamp, atomically
// for all its records, and the per-record ets stamping that follows is a
// formality for GC. Readers that find an XID in ets consult the meta. A
// meta is Preparing from just before its commit timestamp is drawn until
// the commit record is durable; a reader whose snapshot is at or above
// that timestamp waits the commit out (Record.VisibleAt), so a commit is
// one instant to every snapshot.
package undo

import (
	"runtime"
	"sync"
	"sync/atomic"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
)

// Op is the logical operation a record undoes.
type Op uint8

const (
	// OpInsert: the before image is "row did not exist".
	OpInsert Op = iota + 1
	// OpUpdate: the before image is the changed columns' old values.
	OpUpdate
	// OpDelete: the before image is "row existed with current values".
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "op?"
	}
}

// TxnStatus is a transaction's lifecycle state.
type TxnStatus uint32

const (
	// StatusActive means the transaction is running.
	StatusActive TxnStatus = iota
	// StatusPreparing means the transaction is drawing, or has drawn, its
	// commit timestamp and waits for its commit record to be durable.
	StatusPreparing
	// StatusCommitted means the transaction committed; CTS is valid.
	StatusCommitted
	// StatusAborted means the transaction rolled back.
	StatusAborted
)

// TxnMeta is the shared, atomically readable state of one transaction. It
// doubles as the transaction-ID lock of §7.2: Done() is closed exactly when
// the transaction finishes, releasing all shared waiters at once. The
// channel is made by the first waiter, so a transaction nobody waits on
// (nearly every one) never allocates it.
type TxnMeta struct {
	XID    uint64
	status atomic.Uint32
	cts    atomic.Uint64

	mu       sync.Mutex
	done     chan struct{} // nil until the first Done
	finished bool
}

// closedDone is the channel Done hands out after Finish when no waiter
// made one before.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewTxnMeta returns an active meta for xid.
func NewTxnMeta(xid uint64) *TxnMeta {
	return &TxnMeta{XID: xid}
}

// Status returns the current lifecycle state.
func (m *TxnMeta) Status() TxnStatus { return TxnStatus(m.status.Load()) }

// CTS returns the commit timestamp; meaningful once Status is Committed,
// and 0 while a Preparing transaction has not yet published it.
func (m *TxnMeta) CTS() uint64 { return m.cts.Load() }

// Prepare moves the transaction to Preparing. Call it before drawing the
// commit timestamp, and SetCTS right after: a reader that still finds the
// transaction Active took its snapshot before the draw, so the commit is
// invisible to it.
func (m *TxnMeta) Prepare() { m.status.Store(uint32(StatusPreparing)) }

// SetCTS publishes a Preparing transaction's commit timestamp.
func (m *TxnMeta) SetCTS(cts uint64) { m.cts.Store(cts) }

// Commit atomically publishes the commit timestamp and flips the status;
// every record owned by this transaction becomes visible as of cts in one
// step. The transaction-ID lock is NOT yet released (WAL durability may
// still be pending); call Finish for that.
func (m *TxnMeta) Commit(cts uint64) {
	m.cts.Store(cts)
	m.status.Store(uint32(StatusCommitted))
}

// Abort flips the status to aborted.
func (m *TxnMeta) Abort() {
	m.status.Store(uint32(StatusAborted))
}

// Finish releases the transaction-ID lock, waking all waiters.
func (m *TxnMeta) Finish() {
	m.mu.Lock()
	m.finished = true
	if m.done != nil {
		close(m.done)
	}
	m.mu.Unlock()
}

// Done returns a channel closed when the transaction finishes. Waiting on
// it is the shared transaction-ID lock acquisition of §7.2: a low-urgency
// yield in the scheduler's terms. The first call before Finish makes the
// channel; a call after Finish gets one shared closed channel.
func (m *TxnMeta) Done() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done == nil {
		if m.finished {
			return closedDone
		}
		m.done = make(chan struct{})
	}
	return m.done
}

// ColVal is one column's before-image value.
type ColVal struct {
	Col int
	Val rel.Value
}

// Record is one UNDO log entry.
type Record struct {
	Meta    *TxnMeta
	TableID uint32
	RowID   rel.RowID
	Op      Op
	Delta   []ColVal // before images of the changed columns (OpUpdate only)

	sts  atomic.Uint64
	ets  atomic.Uint64
	Prev *Record // next-older version in the chain

	arena *Arena
	seq   uint64
	dead  atomic.Bool
}

// STS returns the start timestamp (commit time of the before image), or an
// XID, or 0 if the predecessor was reclaimed before this record was built.
func (r *Record) STS() uint64 { return r.sts.Load() }

// SetSTS stores the start timestamp.
func (r *Record) SetSTS(v uint64) { r.sts.Store(v) }

// ETS returns the end timestamp: the owner's XID while uncommitted, the
// commit timestamp afterwards.
func (r *Record) ETS() uint64 { return r.ets.Load() }

// SetETS stores the end timestamp (the commit-phase single-scan stamping).
func (r *Record) SetETS(v uint64) { r.ets.Store(v) }

// EffectiveETS resolves the record's commit state without relying on the
// stamping scan: if ets already holds a timestamp it is returned; if it
// holds an XID the owner's meta decides. committed is false while the
// owning transaction is active or aborted.
//
// When the meta resolves to committed, the resolved commit timestamp is
// stamped back into ets (Larson-style timestamp finalization): the first
// reader that races ahead of the commit-phase SetETS scan finalizes the
// record, and every later visibility check takes the plain-timestamp branch
// without touching the TxnMeta cache line again. The CAS only replaces the
// exact XID observed above, so it is idempotent with the stamping scan and
// can never overwrite a newer owner's XID.
func (r *Record) EffectiveETS() (ts uint64, committed bool) {
	ets := r.ets.Load()
	if !clock.IsXID(ets) {
		return ets, true
	}
	if r.Meta != nil && r.Meta.Status() == StatusCommitted {
		cts := r.Meta.CTS()
		r.ets.CompareAndSwap(ets, cts)
		return cts, true
	}
	return ets, false
}

// VisibleAt reports whether the record's version is committed at or below
// snapshot. A writer that is Preparing with a commit timestamp at or below
// snapshot has no verdict until its commit record is durable or its abort
// is published: VisibleAt hands it to wait (or blocks on its Done when
// wait is nil) and decides again. A wait that gives up returns false, and
// VisibleAt then reports the version invisible: the waiter must fail the
// read. A writer between Prepare and SetCTS is a few instructions from
// publishing, so the reader yields until it does.
func (r *Record) VisibleAt(snapshot uint64, wait func(*TxnMeta) bool) bool {
	for {
		ets := r.ets.Load()
		if !clock.IsXID(ets) {
			return ets <= snapshot
		}
		m := r.Meta
		if m == nil {
			return false
		}
		switch m.Status() {
		case StatusCommitted:
			cts := m.CTS()
			r.ets.CompareAndSwap(ets, cts)
			return cts <= snapshot
		case StatusPreparing:
			cts := m.CTS()
			for ; cts == 0; cts = m.CTS() {
				runtime.Gosched()
			}
			if cts > snapshot {
				return false
			}
			if wait == nil {
				<-m.Done()
			} else if !wait(m) {
				return false
			}
		default:
			return false
		}
	}
}

// MarkDead flags an aborted, unlinked record as immediately reclaimable.
func (r *Record) MarkDead() { r.dead.Store(true) }

// Dead reports whether the record was rolled back (MarkDead).
func (r *Record) Dead() bool { return r.dead.Load() }

// Reclaimed reports whether the record's storage has been recycled; a
// chain pointer to a reclaimed record is treated as absent by visibility
// checks (§6.2 "invalid pointer or reclaimed UNDO log").
func (r *Record) Reclaimed() bool {
	if r.dead.Load() {
		return true
	}
	return r.seq < r.arena.floor.Load()
}

// Arena is one task slot's UNDO storage. Records are appended in execution
// order; because a slot runs one transaction at a time, records are grouped
// by transaction in commit order, so reclamation advances a single floor
// sequence — the "queue-like manner" of §7.3.
type Arena struct {
	Slot int

	// reclaimMu serialises Reclaim calls on this arena. New never takes
	// it, so it may be held across the reclaim callbacks, which take page
	// latches; mu may not, because a writer holding a page latch calls New.
	reclaimMu sync.Mutex

	mu      sync.Mutex
	records []*Record
	head    int
	nextSeq uint64
	floor   atomic.Uint64 // all seq < floor are reclaimed

	// lastReclaimedXID is the XID of the most recently reclaimed record;
	// the minimum across arenas is the max-frozen-XID watermark used for
	// twin table GC (§7.3).
	lastReclaimedXID atomic.Uint64
}

// NewArena returns an empty arena for a task slot.
func NewArena(slot int) *Arena { return &Arena{Slot: slot} }

// New appends a record for the transaction described by meta. prev is the
// next-older version (the current chain head), used to derive sts: the
// previous record's ets, or 0 if it was reclaimed.
func (a *Arena) New(meta *TxnMeta, tableID uint32, rowID rel.RowID, op Op, delta []ColVal, prev *Record) *Record {
	r := &Record{
		Meta:    meta,
		TableID: tableID,
		RowID:   rowID,
		Op:      op,
		Delta:   delta,
		Prev:    prev,
		arena:   a,
	}
	r.ets.Store(meta.XID)
	if prev != nil && !prev.Reclaimed() {
		r.sts.Store(prev.ETS())
	} // else sts stays 0: predecessor reclaimed (§6.2)
	a.mu.Lock()
	r.seq = a.nextSeq
	a.nextSeq++
	a.records = append(a.records, r)
	a.mu.Unlock()
	return r
}

// Live returns the number of unreclaimed records (diagnostics / tests).
func (a *Arena) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.records) - a.head
}

// Reclaim scans from the queue head, recycling records of finished
// transactions whose commit timestamp is earlier than minActiveStart (the
// minimum active transaction start timestamp watermark), plus dead
// (aborted) records. onReclaim is invoked for each recycled record, in
// queue order, before it is dropped — the engine uses it to physically
// erase deleted tuples and trim twin tables. Returns the number reclaimed.
//
// The callbacks run without the arena mutex: under it Reclaim only finds
// the reclaimable run and publishes floor, so visibility checks already
// treat those records as invalid while they are torn down. The run leaves
// the queue, and LastReclaimedXID moves, only after its callbacks return,
// which keeps FirstUnreclaimedXID (hence the max-frozen-XID watermark)
// behind every tuple still waiting to be erased.
func (a *Arena) Reclaim(minActiveStart uint64, onReclaim func(*Record)) int {
	a.reclaimMu.Lock()
	defer a.reclaimMu.Unlock()

	a.mu.Lock()
	end := a.head
	for end < len(a.records) {
		r := a.records[end]
		if !r.dead.Load() {
			ets, committed := r.EffectiveETS()
			if !committed || ets >= minActiveStart {
				break
			}
		}
		end++
	}
	if end == a.head {
		a.mu.Unlock()
		return 0
	}
	// New only appends, so indices head..end keep naming the run even if
	// the slice grows (and this view of the old backing array stays valid).
	run := a.records[a.head:end]
	last := run[len(run)-1]
	a.floor.Store(last.seq + 1)
	a.mu.Unlock()

	if onReclaim != nil {
		for _, r := range run {
			onReclaim(r)
		}
	}

	a.mu.Lock()
	n := end - a.head
	clear(a.records[a.head:end])
	a.head = end
	if a.head == len(a.records) {
		a.records = a.records[:0]
		a.head = 0
	}
	a.mu.Unlock()
	a.lastReclaimedXID.Store(last.Meta.XID)
	return n
}

// LastReclaimedXID returns the XID of the most recently reclaimed record
// (0 if none yet).
func (a *Arena) LastReclaimedXID() uint64 { return a.lastReclaimedXID.Load() }

// FirstUnreclaimedXID returns the owner XID of the oldest live record, or
// 0 when the arena is fully reclaimed. It is a slot's contribution to the
// max-frozen-XID watermark (§7.3).
func (a *Arena) FirstUnreclaimedXID() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.head >= len(a.records) {
		return 0
	}
	return a.records[a.head].Meta.XID
}

// --- Twin table ---------------------------------------------------------------

// TwinEntry is one tuple's sidecar in the twin table: the version chain
// head plus the tuple-lock metadata of §7.2.
type TwinEntry struct {
	Head *Record
	// Lock state: 0 free, -1 exclusive, >0 shared count. Mutated under the
	// owning page's latch.
	LockState    int32
	LockOwnerXID uint64 // exclusive holder, diagnostics only
	waiters      []chan struct{}
}

// AddWaiter registers a wakeup channel for a lock conflict. Called under
// the page latch.
func (e *TwinEntry) AddWaiter() <-chan struct{} {
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	return ch
}

// WakeWaiters releases every registered waiter. Called under the page latch
// when the lock state changes.
func (e *TwinEntry) WakeWaiters() {
	for _, ch := range e.waiters {
		close(ch)
	}
	e.waiters = nil
}

// TwinTable is the page-level mapping from tuple to version chain (§6.2),
// created on a page's first modification. GC empties it in place once its
// writers are globally visible (Reset), so a page written again reuses its
// map and entries instead of building new ones. All access happens under
// the owning page's latch, and no *TwinEntry is held past it: that is what
// lets Reset recycle the entries.
type TwinTable struct {
	entries map[rel.RowID]*TwinEntry
	free    []*TwinEntry // emptied entries, reused by Entry
	peak    int          // most entries held since creation or the last Reset
	// MaxWriterXID is the largest XID that modified this table; the table
	// may be emptied once it is <= the max-frozen-XID watermark (§7.3).
	MaxWriterXID uint64
}

// NewTwinTable returns an empty twin table.
func NewTwinTable() *TwinTable {
	return &TwinTable{entries: make(map[rel.RowID]*TwinEntry)}
}

// Entry returns the tuple's entry, creating it if create is set.
func (t *TwinTable) Entry(rid rel.RowID, create bool) *TwinEntry {
	e := t.entries[rid]
	if e == nil && create {
		if n := len(t.free); n > 0 {
			e = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			e = &TwinEntry{}
		}
		t.entries[rid] = e
		t.peak = max(t.peak, len(t.entries))
	}
	return e
}

// Remove deletes the tuple's entry.
func (t *TwinTable) Remove(rid rel.RowID) { delete(t.entries, rid) }

// recycle clears an entry that left the map and keeps it for reuse.
func (t *TwinTable) recycle(e *TwinEntry) {
	*e = TwinEntry{}
	t.free = append(t.free, e)
}

// Len returns the number of entries; a nil table has none.
func (t *TwinTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.entries)
}

// Peak returns the most entries the table has held since it was created
// or last Reset: how far a bulk transaction grew its map.
func (t *TwinTable) Peak() int { return t.peak }

// Reset empties the table in place, keeping its map storage and recycling
// its entries. Call it only on a Collectible table.
func (t *TwinTable) Reset() {
	for _, e := range t.entries {
		t.recycle(e)
	}
	clear(t.entries)
	t.peak = 0
	t.MaxWriterXID = 0
}

// Head returns the live chain head for the tuple: the newest record that
// has not been reclaimed, or nil. A reclaimed head invalidates the whole
// chain reference (§6.2).
func (t *TwinTable) Head(rid rel.RowID) *Record {
	e := t.entries[rid]
	if e == nil || e.Head == nil || e.Head.Reclaimed() {
		return nil
	}
	return e.Head
}

// Push links rec as the tuple's new chain head and tracks the writer XID.
func (t *TwinTable) Push(rid rel.RowID, rec *Record) {
	e := t.Entry(rid, true)
	rec.Prev = e.Head
	e.Head = rec
	if rec.Meta.XID > t.MaxWriterXID {
		t.MaxWriterXID = rec.Meta.XID
	}
}

// Pop unlinks the chain head if it is rec (rollback path); returns whether
// it unlinked.
func (t *TwinTable) Pop(rid rel.RowID, rec *Record) bool {
	e := t.entries[rid]
	if e == nil || e.Head != rec {
		return false
	}
	e.Head = rec.Prev
	if e.Head == nil && e.LockState == 0 && len(e.waiters) == 0 {
		delete(t.entries, rid)
		t.recycle(e)
	}
	return true
}

// Collectible reports whether the whole table can be emptied: every writer
// is globally visible (<= maxFrozenXID) and no entry holds locks, waiters,
// or a live chain head.
func (t *TwinTable) Collectible(maxFrozenXID uint64) bool {
	if t.MaxWriterXID > maxFrozenXID {
		return false
	}
	for _, e := range t.entries {
		if e.LockState != 0 || len(e.waiters) > 0 {
			return false
		}
		if e.Head != nil && !e.Head.Reclaimed() {
			return false
		}
	}
	return true
}
