// Package table implements PhoebeDB's base-table storage (§5): the table
// B-Tree keyed by the internally assigned, monotonically increasing row_id.
//
// Because row_ids are assigned at insert time in increasing order, the
// tree's key space only ever grows at the right edge; the structure is a
// routing directory (the inner level) over PAX leaf pages. Each leaf page
// carries its own latch, swizzled payload (hot/cooling/cold), twin table
// pointer (§6.2), the GSN of its last logged change (§8), and decayed
// access count (§5.2's data temperature). There is no global page table: a
// page is reached only through the directory and its swip.
//
// Pages holding version chains or tuple locks (a non-empty twin table) are
// pinned in memory — their UNDO bookkeeping must stay addressable — and
// become evictable again once GC empties the twin table. The emptied table
// stays attached for the page's next write; eviction and freezing drop it.
package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/buffer"
	"phoebedb/internal/latch"
	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
	"phoebedb/internal/swizzle"
	"phoebedb/internal/undo"
	"phoebedb/internal/waitevent"
)

// Ctx carries a caller's scheduling and observability identity through the
// table's latch/residency paths: Yield is invoked at latch-spin and
// page-load points (the paper's high-urgency yield), and Waits/Slot let a
// buffer-miss page read be charged to the waiting task slot as a
// buffer_io wait event. A nil *Ctx is valid and means "no yield, no
// stamping" — maintenance and recovery paths pass nil.
type Ctx struct {
	Yield func()
	Waits *waitevent.Slots
	Slot  int
}

// yield invokes the yield hook if any.
func (c *Ctx) yield() {
	if c != nil && c.Yield != nil {
		c.Yield()
	}
}

// yieldFunc returns the raw yield hook (possibly nil) for latch waits.
func (c *Ctx) yieldFunc() func() {
	if c == nil {
		return nil
	}
	return c.Yield
}

// ErrNotFound reports a row_id absent from the table's hot/cold layers.
var ErrNotFound = errors.New("table: row not found")

// ErrFrozen reports a row_id below the frozen frontier: the caller must
// consult the frozen store (§5.2).
var ErrFrozen = errors.New("table: row is frozen")

// Payload is a page's resident content: the PAX rows, their row_ids
// (sorted ascending, parallel to PAX slots), and tombstone flags for
// deleted-but-not-yet-collected tuples.
type Payload struct {
	Rows    *pax.Page
	IDs     []rel.RowID
	Deleted []bool
}

func (pl *Payload) find(rid rel.RowID) int {
	i := sort.Search(len(pl.IDs), func(i int) bool { return pl.IDs[i] >= rid })
	if i < len(pl.IDs) && pl.IDs[i] == rid {
		return i
	}
	return -1
}

// serializedSize returns the exact byte length serialize appends.
func (pl *Payload) serializedSize() int {
	return 4 + 9*len(pl.IDs) + pl.Rows.SerializedSize()
}

func (pl *Payload) serialize(dst []byte) []byte {
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(pl.IDs)))
	dst = append(dst, b8[:4]...)
	for _, id := range pl.IDs {
		binary.LittleEndian.PutUint64(b8[:], uint64(id))
		dst = append(dst, b8[:]...)
	}
	for _, d := range pl.Deleted {
		if d {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return pl.Rows.Serialize(dst)
}

func deserializePayload(schema *rel.Schema, cap int, img []byte) (*Payload, error) {
	if len(img) < 4 {
		return nil, fmt.Errorf("table: truncated payload")
	}
	n := int(binary.LittleEndian.Uint32(img[:4]))
	off := 4
	if len(img) < off+8*n+n {
		return nil, fmt.Errorf("table: truncated payload ids")
	}
	pl := &Payload{IDs: make([]rel.RowID, n), Deleted: make([]bool, n)}
	for i := 0; i < n; i++ {
		pl.IDs[i] = rel.RowID(binary.LittleEndian.Uint64(img[off : off+8]))
		off += 8
	}
	for i := 0; i < n; i++ {
		pl.Deleted[i] = img[off] != 0
		off++
	}
	rows, err := pax.Deserialize(schema, cap, img[off:])
	if err != nil {
		return nil, err
	}
	if rows.Len() != n {
		return nil, fmt.Errorf("table: payload row count %d != id count %d", rows.Len(), n)
	}
	pl.Rows = rows
	return pl, nil
}

// Page is one leaf of the table tree.
type Page struct {
	lt         latch.Latch
	firstRowID rel.RowID
	swip       swizzle.Swip[Payload]
	hotness    atomic.Uint32
	// open marks an active insert frontier (a lane's current page): such a
	// page never cools, and freezes only once a freeze has sealed its idle
	// lane (see sealIdleLane). Cleared when the lane moves on.
	open atomic.Bool

	// Guarded by lt (exclusive for writes):
	Twin *undo.TwinTable
	// twinListed is true while the page is in its table's twinPages set.
	twinListed bool
	// GSN is the GSN of the page's last logged change: the next change's
	// record takes a GSN above it, so changes to one page are GSN-ordered.
	GSN uint64

	table *Table
	part  int // buffer partition owning this page
}

// touch records an access for temperature tracking and rescues a cooling
// page.
func (pg *Page) touch() {
	if pg.hotness.Load() < 1<<20 {
		pg.hotness.Add(1)
	}
	if pg.swip.State() == swizzle.Cooling {
		pg.swip.Rescue()
	}
	if pg.table.pool != nil {
		pg.table.pool.CountAccess(pg.part)
	}
}

// Hotness implements buffer.Frame.
func (pg *Page) Hotness() uint32 { return pg.hotness.Load() }

// DecayHotness implements buffer.Frame (halving decay).
func (pg *Page) DecayHotness() {
	for {
		h := pg.hotness.Load()
		if pg.hotness.CompareAndSwap(h, h/2) {
			return
		}
	}
}

// Resident implements buffer.Frame.
func (pg *Page) Resident() bool { return pg.swip.IsResident() }

// StartCooling implements buffer.Frame.
func (pg *Page) StartCooling() bool {
	if pg.open.Load() {
		return false // an insert frontier never cools
	}
	return pg.swip.StartCooling()
}

// EvictIfCooling implements buffer.Frame: serialize to the data page file
// and unswizzle, unless the page was rescued, is pinned by a twin table,
// cannot be latched without waiting, or no longer fits its disk slot.
func (pg *Page) EvictIfCooling() (int, bool) {
	if !pg.lt.TryLockExclusive() {
		pg.swip.Rescue()
		return 0, false
	}
	defer pg.lt.UnlockExclusive()
	if pg.swip.State() != swizzle.Cooling {
		return 0, false
	}
	if pg.Twin.Len() > 0 {
		pg.swip.Rescue() // pinned: version chains / locks reference it
		return 0, false
	}
	pl := pg.swip.Ptr()
	img := pl.serialize(nil)
	if len(img) > pg.table.pf.PageSize() {
		pg.swip.Rescue()
		return 0, false
	}
	id := pg.swip.PageID()
	if id == storage.InvalidPageID {
		id = pg.table.pf.Allocate()
		pg.swip.SetPageID(id)
	}
	if err := pg.table.pf.WritePage(id, img); err != nil {
		pg.swip.Rescue()
		return 0, false
	}
	if !pg.swip.Unswizzle() {
		return 0, false
	}
	pg.Twin = nil // an emptied table is not worth keeping off-page
	return pg.table.pf.PageSize(), true
}

// insertLane is one worker's private insert frontier: an open page plus the
// row_id chunk it is filling. Lanes pre-reserve PageCap row_ids at a time
// from the shared counter, so concurrent appends on different lanes touch
// no shared state beyond one fetch-add per page.
type insertLane struct {
	mu   sync.Mutex
	pg   *Page  // open page, nil until the first append (or after a seal)
	next uint64 // next row_id to assign from the chunk
	end  uint64 // last row_id of the chunk (inclusive)
}

// Table is one relation's storage.
type Table struct {
	ID      uint32
	Schema  *rel.Schema
	PageCap int

	pf   *storage.PageFile
	pool *buffer.Pool

	dirMu sync.RWMutex
	dir   []*Page // sorted by firstRowID

	// lanes are the per-worker insert frontiers; Append(row, part, ...)
	// uses lane part%len(lanes). A single lane reproduces the classic
	// serialized tail.
	lanes []insertLane

	// recMu serializes the explicit-row_id paths (AppendAt, InsertAt,
	// ImportImages, SetNextRowID) used by recovery, replication, and
	// checkpoint restore. The hot Append path never takes it.
	recMu sync.Mutex

	nextRowID      atomic.Uint64 // highest row_id reserved by any lane chunk
	maxAssigned    atomic.Uint64 // highest row_id actually given to a row
	maxFrozenRowID atomic.Uint64 // rows <= this are in the frozen store

	// twinPages is the set of pages whose twin tables the GC sweep must
	// look at: a page joins when a writer asks for its table and leaves
	// when the sweep empties or drops it. Lock order: page latch, then
	// twinMu.
	twinMu    sync.Mutex
	twinPages map[*Page]struct{}
	// sweepMu serializes DropCollectibleTwins and guards sweepBuf, its
	// copy of twinPages.
	sweepMu  sync.Mutex
	sweepBuf []*Page
}

// New creates an empty table backed by pf, registering page frames with
// pool partitions chosen by the inserting slot. The table starts with a
// single insert lane; see SetInsertLanes.
func New(id uint32, schema *rel.Schema, pageCap int, pf *storage.PageFile, pool *buffer.Pool) *Table {
	return &Table{ID: id, Schema: schema, PageCap: pageCap, pf: pf, pool: pool,
		lanes: make([]insertLane, 1), twinPages: make(map[*Page]struct{})}
}

// SetInsertLanes splits the insert frontier into n independent lanes,
// typically one per worker, so concurrent inserts stop serializing on one
// tail page. Call before the first insert (the engine does, at DDL time).
func (t *Table) SetInsertLanes(n int) {
	if n < 1 {
		n = 1
	}
	t.lanes = make([]insertLane, n)
}

// raiseMaxAssigned lifts the assigned-row_id high-water mark to at least r.
func (t *Table) raiseMaxAssigned(r uint64) {
	for {
		cur := t.maxAssigned.Load()
		if r <= cur || t.maxAssigned.CompareAndSwap(cur, r) {
			return
		}
	}
}

// newPage creates a fresh hot page starting at firstRID and inserts it into
// the directory at its sorted position. Chunk starts are allocated from a
// monotone counter but lanes fill at different speeds, so a new page is not
// always the right edge.
func (t *Table) newPage(firstRID rel.RowID, part int, open bool) *Page {
	pg := &Page{firstRowID: firstRID, table: t, part: part}
	pl := &Payload{Rows: pax.NewPage(t.Schema, t.PageCap)}
	pg.swip.Swizzle(pl)
	pg.open.Store(open)
	t.dirMu.Lock()
	pos := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].firstRowID > pg.firstRowID })
	t.dir = append(t.dir, nil)
	copy(t.dir[pos+1:], t.dir[pos:])
	t.dir[pos] = pg
	t.dirMu.Unlock()
	if t.pool != nil {
		t.pool.Register(pg, part)
		t.pool.AddResident(part, int64(t.pf.PageSize()))
	}
	return pg
}

// Handle is the view of one row passed to WithRow/Append callbacks; valid
// only for the callback's duration, under the page latch. It is passed by
// value so the hot read path never heap-allocates one (a pointer handed to
// an opaque callback would escape).
type Handle struct {
	Pg   *Page
	Pl   *Payload
	Slot int
	RID  rel.RowID
}

// Row materializes the current (newest) tuple version.
func (h *Handle) Row() rel.Row { return h.Pl.Rows.Row(h.Slot) }

// ReadRowInto materializes the current version into dst, reusing its
// storage (the allocation-free read path). dst must have schema-many
// entries.
func (h *Handle) ReadRowInto(dst rel.Row) { h.Pl.Rows.ReadRowInto(h.Slot, dst) }

// Col reads one column of the current version.
func (h *Handle) Col(i int) rel.Value { return h.Pl.Rows.Col(h.Slot, i) }

// SetCol updates one column in place (caller has captured the UNDO delta).
func (h *Handle) SetCol(i int, v rel.Value) { h.Pl.Rows.SetCol(h.Slot, i, v) }

// Deleted reports the tombstone flag.
func (h *Handle) Deleted() bool { return h.Pl.Deleted[h.Slot] }

// SetDeleted sets or clears the tombstone flag.
func (h *Handle) SetDeleted(d bool) { h.Pl.Deleted[h.Slot] = d }

// TwinTable returns the page's twin table, creating it when create is set.
// A writer passes create and holds the exclusive latch: the page joins the
// GC sweep's set, and is pinned while the table holds an entry.
func (h *Handle) TwinTable(create bool) *undo.TwinTable {
	pg := h.Pg
	if create {
		if pg.Twin == nil {
			pg.Twin = undo.NewTwinTable()
		}
		if !pg.twinListed {
			pg.twinListed = true
			t := pg.table
			t.twinMu.Lock()
			t.twinPages[pg] = struct{}{}
			t.twinMu.Unlock()
		}
	}
	return pg.Twin
}

// ensureResident loads a cold page's payload. Requires the exclusive latch.
func (pg *Page) ensureResident(io *Ctx) (*Payload, error) {
	if pg.swip.State() != swizzle.Cold {
		return pg.swip.Ptr(), nil
	}
	io.yield() // the paper's async-read high-urgency yield point
	if pg.table.pool != nil {
		pg.table.pool.CountMiss(pg.part)
	}
	var waitStart time.Time
	if io != nil && io.Waits != nil {
		waitStart = io.Waits.Begin(io.Slot, waitevent.EvBufferIO)
	}
	img, err := pg.table.pf.ReadPage(pg.swip.PageID(), nil)
	if io != nil && io.Waits != nil {
		io.Waits.End(io.Slot, waitevent.EvBufferIO, waitStart)
	}
	if err != nil {
		return nil, err
	}
	pl, err := deserializePayload(pg.table.Schema, pg.table.PageCap, img)
	if err != nil {
		return nil, fmt.Errorf("table %d page %d: %w", pg.table.ID, pg.swip.PageID(), err)
	}
	pg.swip.Swizzle(pl)
	if pg.table.pool != nil {
		pg.table.pool.AddResident(pg.part, int64(pg.table.pf.PageSize()))
	}
	return pl, nil
}

// findPage routes a row_id to its page via the directory (the inner level
// of the table tree).
func (t *Table) findPage(rid rel.RowID) *Page {
	t.dirMu.RLock()
	defer t.dirMu.RUnlock()
	i := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].firstRowID > rid })
	if i == 0 {
		return nil
	}
	return t.dir[i-1]
}

// WithRow runs fn under the row's page latch (exclusive when exclusive is
// set, shared otherwise). yield is invoked at latch-spin and page-load
// points. Returns ErrFrozen for rows below the frozen frontier and
// ErrNotFound for absent row_ids.
func (t *Table) WithRow(rid rel.RowID, exclusive bool, io *Ctx, fn func(h Handle) error) error {
	if uint64(rid) <= t.maxFrozenRowID.Load() {
		return ErrFrozen
	}
	pg := t.findPage(rid)
	if pg == nil {
		return ErrNotFound
	}
	for {
		if exclusive || pg.swip.State() == swizzle.Cold {
			pg.lt.LockExclusive(io.yieldFunc())
			pl, err := pg.ensureResident(io)
			if err != nil {
				pg.lt.UnlockExclusive()
				return err
			}
			if !exclusive {
				// Loaded on behalf of a reader: retry under shared.
				pg.lt.UnlockExclusive()
				continue
			}
			pg.touch()
			slot := pl.find(rid)
			if slot < 0 {
				pg.lt.UnlockExclusive()
				return ErrNotFound
			}
			err = fn(Handle{Pg: pg, Pl: pl, Slot: slot, RID: rid})
			pg.lt.UnlockExclusive()
			return err
		}
		pg.lt.LockShared(io.yieldFunc())
		if pg.swip.State() == swizzle.Cold {
			pg.lt.UnlockShared()
			continue
		}
		pg.touch()
		pl := pg.swip.Ptr()
		slot := pl.find(rid)
		if slot < 0 {
			pg.lt.UnlockShared()
			return ErrNotFound
		}
		err := fn(Handle{Pg: pg, Pl: pl, Slot: slot, RID: rid})
		pg.lt.UnlockShared()
		return err
	}
}

// Append inserts row at the insert frontier of lane part%lanes, assigns its
// row_id from the lane's chunk, and runs fn under the page's exclusive
// latch (so the caller can build UNDO/WAL state atomically with the
// insert). Lanes hold disjoint row_id ranges, so concurrent appends on
// different lanes never touch the same page.
func (t *Table) Append(row rel.Row, part int, io *Ctx, fn func(h Handle) error) (rel.RowID, error) {
	if err := row.Conforms(t.Schema); err != nil {
		return 0, err
	}
	l := &t.lanes[part%len(t.lanes)]
	l.mu.Lock()
	defer l.mu.Unlock()
	pg := l.pg
	var pl *Payload
	if pg != nil {
		pg.lt.LockExclusive(io.yieldFunc())
		var err error
		pl, err = pg.ensureResident(io)
		if err != nil {
			pg.lt.UnlockExclusive()
			return 0, err
		}
		if pl.Rows.Full() || l.next > l.end {
			pg.lt.UnlockExclusive()
			pg.open.Store(false)
			l.pg, pg = nil, nil
		}
	}
	if pg == nil {
		// Reserve a fresh chunk: one page's worth of row_ids. Idle lanes
		// burn their leftover range — gaps are first-class (aborts burn
		// row_ids too), only disjointness and per-page sortedness matter.
		end := t.nextRowID.Add(uint64(t.PageCap))
		l.next, l.end = end-uint64(t.PageCap)+1, end
		pg = t.newPage(rel.RowID(l.next), part, true)
		l.pg = pg
		pg.lt.LockExclusive(io.yieldFunc())
		pl = pg.swip.Ptr()
	}
	rid := rel.RowID(l.next)
	l.next++
	slot, err := pl.Rows.Append(row)
	if err != nil {
		pg.lt.UnlockExclusive()
		return 0, err
	}
	pl.IDs = append(pl.IDs, rid)
	pl.Deleted = append(pl.Deleted, false)
	pg.touch()
	if fn != nil {
		if err := fn(Handle{Pg: pg, Pl: pl, Slot: slot, RID: rid}); err != nil {
			// Roll the physical insert back; the row_id is burned.
			pl.Rows.Delete(slot)
			pl.IDs = pl.IDs[:len(pl.IDs)-1]
			pl.Deleted = pl.Deleted[:len(pl.Deleted)-1]
			pg.lt.UnlockExclusive()
			return 0, err
		}
	}
	t.raiseMaxAssigned(uint64(rid))
	pg.lt.UnlockExclusive()
	if l.next > l.end {
		// Chunk exhausted: seal the page so cooling and freezing may take it.
		pg.open.Store(false)
		l.pg = nil
	}
	return rid, nil
}

// sealLanesLocked retires every lane's open page and chunk remainder (the
// unassigned row_ids are burned). Explicit-row_id fast-forwards use it so a
// later lane append can never re-assign a row_id at or below the new
// counter. Caller holds recMu.
func (t *Table) sealLanesLocked() {
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		if l.pg != nil {
			l.pg.open.Store(false)
			l.pg = nil
		}
		l.next, l.end = 0, 0
		l.mu.Unlock()
	}
}

// fastForwardLocked seals all lanes and advances both counters to rid,
// which becomes the highest reserved and assigned row_id. Caller holds
// recMu and is about to place a row at rid.
func (t *Table) fastForwardLocked(rid uint64) {
	t.sealLanesLocked()
	t.nextRowID.Store(rid)
	t.raiseMaxAssigned(rid)
}

// highRowID returns the highest row_id that is reserved or assigned.
func (t *Table) highRowID() uint64 {
	hi := t.nextRowID.Load()
	if m := t.maxAssigned.Load(); m > hi {
		hi = m
	}
	return hi
}

// placeRight appends (rid, row) at the right edge of the key space: into
// the last directory page when it is sealed, in range, and has room, else
// into a fresh page starting at rid. Caller holds recMu and has
// fast-forwarded the counters past rid.
func (t *Table) placeRight(rid rel.RowID, row rel.Row) error {
	t.dirMu.RLock()
	var pg *Page
	if n := len(t.dir); n > 0 {
		pg = t.dir[n-1]
	}
	t.dirMu.RUnlock()
	if pg != nil && !pg.open.Load() {
		pg.lt.LockExclusive(nil)
		pl, err := pg.ensureResident(nil)
		if err != nil {
			pg.lt.UnlockExclusive()
			return err
		}
		if !pl.Rows.Full() && (len(pl.IDs) == 0 || pl.IDs[len(pl.IDs)-1] < rid) {
			err = insertSorted(pl, rid, row)
			pg.touch()
			pg.lt.UnlockExclusive()
			return err
		}
		pg.lt.UnlockExclusive()
	}
	pg = t.newPage(rid, 0, false)
	pg.lt.LockExclusive(nil)
	err := insertSorted(pg.swip.Ptr(), rid, row)
	pg.touch()
	pg.lt.UnlockExclusive()
	return err
}

// AppendAt inserts row with an explicit row_id greater than any reserved or
// assigned so far, fast-forwarding the row_id counter past it. Recovery
// uses this to reproduce logged row_ids even across gaps burned by aborted
// transactions.
func (t *Table) AppendAt(rid rel.RowID, row rel.Row) error {
	if err := row.Conforms(t.Schema); err != nil {
		return err
	}
	t.recMu.Lock()
	defer t.recMu.Unlock()
	if hi := t.highRowID(); uint64(rid) <= hi {
		return fmt.Errorf("table: AppendAt row_id %d not beyond counter %d", rid, hi)
	}
	t.fastForwardLocked(uint64(rid))
	return t.placeRight(rid, row)
}

// RemoveRow physically erases a tombstoned row (deleted-tuple GC, §7.3).
func (t *Table) RemoveRow(rid rel.RowID, io *Ctx) error {
	return t.WithRow(rid, true, io, func(h Handle) error { return h.Remove() })
}

// Remove physically erases the row from its page. The caller holds the
// page's exclusive latch (a WithRow callback with exclusive set).
func (h *Handle) Remove() error {
	if err := h.Pl.Rows.Delete(h.Slot); err != nil {
		return err
	}
	h.Pl.IDs = append(h.Pl.IDs[:h.Slot], h.Pl.IDs[h.Slot+1:]...)
	h.Pl.Deleted = append(h.Pl.Deleted[:h.Slot], h.Pl.Deleted[h.Slot+1:]...)
	return nil
}

// keptTwinEntries is the most entries a twin table may have held for GC
// to empty it in place rather than drop it. A map of up to eight entries
// is one group of slots; a table a bulk transaction grew past that is
// dropped, so loaded pages do not keep their grown maps.
const keptTwinEntries = 8

// DropCollectibleTwins sweeps pages with twin tables and empties those
// whose writers are all globally visible (twin table GC, §7.3): in place,
// for the page's next write, unless a bulk transaction grew the table past
// keptTwinEntries, in which case it is dropped. Either way the page
// leaves the sweep's set. Returns the number of tables collected.
func (t *Table) DropCollectibleTwins(maxFrozenXID uint64) int {
	t.sweepMu.Lock()
	defer t.sweepMu.Unlock()
	// Copy the set and release twinMu before latching any page: a writer
	// takes twinMu under its page latch.
	t.twinMu.Lock()
	pages := t.sweepBuf[:0]
	for pg := range t.twinPages {
		pages = append(pages, pg)
	}
	t.twinMu.Unlock()
	collected := 0
	for _, pg := range pages {
		if !pg.lt.TryLockExclusive() {
			continue
		}
		if tt := pg.Twin; tt == nil || tt.Collectible(maxFrozenXID) {
			if tt != nil {
				collected++
				if tt.Peak() > keptTwinEntries {
					pg.Twin = nil
				} else {
					tt.Reset()
				}
			}
			pg.twinListed = false
			t.twinMu.Lock()
			delete(t.twinPages, pg)
			t.twinMu.Unlock()
		}
		pg.lt.UnlockExclusive()
	}
	clear(pages)
	t.sweepBuf = pages[:0]
	return collected
}

// Scan iterates all live (non-tombstoned) rows in row_id order across the
// hot/cold layers, invoking fn until it returns false. Each page is read
// under its shared latch.
//
// The row and handle passed to fn are scratch storage owned by the scan and
// reused for every row: both are valid only for the duration of the
// callback. Callers that need a row beyond the callback must copy it
// (string values may be retained — they are zero-copy views of
// content-immutable page bytes, see pax.viewStr).
func (t *Table) Scan(io *Ctx, fn func(rid rel.RowID, row rel.Row, h *Handle) bool) error {
	return t.scan(io, false, fn)
}

// ScanAll is Scan including tombstoned rows: an index backfill needs them
// because a delete committed after a reader's snapshot must still be
// visible to that reader through its version chain. The same scratch-reuse
// contract as Scan applies.
func (t *Table) ScanAll(io *Ctx, fn func(rid rel.RowID, row rel.Row, h *Handle) bool) error {
	return t.scan(io, true, fn)
}

func (t *Table) scan(io *Ctx, includeTombstones bool, fn func(rid rel.RowID, row rel.Row, h *Handle) bool) error {
	// One scratch row and one handle for the whole scan.
	buf := make(rel.Row, t.Schema.NumCols())
	var h Handle
	return t.ScanPages(io, func(v PageView) bool {
		pl := v.Pl
		h.Pg, h.Pl = v.Pg, pl
		for i, rid := range pl.IDs {
			if pl.Deleted[i] && !includeTombstones {
				continue
			}
			pl.Rows.ReadRowInto(i, buf)
			h.Slot, h.RID = i, rid
			if !fn(rid, buf, &h) {
				return false
			}
		}
		return true
	})
}

// PageView is one resident page's content handed to ScanPages callbacks.
// Everything in it is borrowed: valid only under the page's shared latch,
// for the duration of the callback.
type PageView struct {
	// Pg is the page; Pg.Twin is its twin table (nil or empty when no slot
	// has an uncollected version chain or tuple lock).
	Pg *Page
	Pl *Payload
}

// ScanPages iterates the hot/cold pages in row_id order, invoking fn once
// per page under its shared latch, until fn returns false — the one place
// a scan swizzles a cold page in and latches it. The callback sees the
// whole PAX payload at once (tombstones included) and evaluates column
// predicates against minipage bytes without materializing rows.
func (t *Table) ScanPages(io *Ctx, fn func(v PageView) bool) error {
	t.dirMu.RLock()
	pages := append([]*Page(nil), t.dir...)
	t.dirMu.RUnlock()
	for _, pg := range pages {
		for {
			if pg.swip.State() == swizzle.Cold {
				pg.lt.LockExclusive(io.yieldFunc())
				if _, err := pg.ensureResident(io); err != nil {
					pg.lt.UnlockExclusive()
					return err
				}
				pg.lt.UnlockExclusive()
				continue
			}
			pg.lt.LockShared(io.yieldFunc())
			if pg.swip.State() == swizzle.Cold {
				pg.lt.UnlockShared()
				continue
			}
			pg.touch()
			cont := fn(PageView{Pg: pg, Pl: pg.swip.Ptr()})
			pg.lt.UnlockShared()
			if !cont {
				return nil
			}
			break
		}
	}
	return nil
}

// NextRowID returns the highest assigned row_id (reserved-but-unused chunk
// remainders don't count: they may be burned without ever holding a row).
func (t *Table) NextRowID() rel.RowID { return rel.RowID(t.maxAssigned.Load()) }

// MaxFrozenRowID returns the frozen frontier (§5.2).
func (t *Table) MaxFrozenRowID() rel.RowID { return rel.RowID(t.maxFrozenRowID.Load()) }

// NumPages returns the directory size (hot/cold pages only).
func (t *Table) NumPages() int {
	t.dirMu.RLock()
	defer t.dirMu.RUnlock()
	return len(t.dir)
}

// FrozenCandidate is one page's content handed to the freezer.
type FrozenCandidate struct {
	FirstRID rel.RowID
	Payload  *Payload
}

// DetachFrozenPrefix removes up to maxPages cold-enough pages from the
// front of the directory for freezing (§5.2 case 2): consecutive non-tail
// pages with decayed access counts at or below maxHot, no twin table, and
// no pending tombstones. An idle lane's open page among them is sealed
// first (see sealIdleLane). It advances max_frozen_row_id to cover the
// detached range and returns the detached payloads in row_id order.
func (t *Table) DetachFrozenPrefix(maxPages int, maxHot uint32, io *Ctx) ([]FrozenCandidate, error) {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	var out []FrozenCandidate
	for len(out) < maxPages && len(t.dir) > 1 { // never empty the directory
		pg := t.dir[0]
		if pg.Hotness() > maxHot || pg.open.Load() && !t.sealIdleLane(pg) {
			break // a busy insert frontier never freezes
		}
		pg.lt.LockExclusive(io.yieldFunc())
		if pg.Twin.Len() > 0 {
			pg.lt.UnlockExclusive()
			break
		}
		pl, err := pg.ensureResident(io)
		if err != nil {
			pg.lt.UnlockExclusive()
			return out, err
		}
		pending := false
		for _, d := range pl.Deleted {
			if d {
				pending = true
				break
			}
		}
		if pending {
			pg.lt.UnlockExclusive()
			break
		}
		// Detach: the page leaves the directory with its emptied twin
		// table, if any; its disk slot is freed.
		pg.Twin = nil
		t.dir = t.dir[1:]
		if id := pg.swip.PageID(); id != storage.InvalidPageID {
			t.pf.Free(id)
		}
		if t.pool != nil && pg.Resident() {
			t.pool.AddResident(pg.part, -int64(t.pf.PageSize()))
		}
		out = append(out, FrozenCandidate{FirstRID: pg.firstRowID, Payload: pl})
		t.maxFrozenRowID.Store(uint64(t.dir[0].firstRowID) - 1)
		pg.lt.UnlockExclusive()
	}
	return out, nil
}

// sealIdleLane seals the lane whose open page pg is, burning the rest of
// its row_id chunk, and reports whether it did. A freeze calls it for a
// lane's page that reached the front of the directory cold enough to
// freeze: its lane went idle while later lanes filled the pages behind
// it, and left open it would hold every one of them back. A lane that is
// appending is left alone: Append takes the directory lock under the
// lane's mutex, so the mutex is tried, not waited for. Caller holds dirMu.
func (t *Table) sealIdleLane(pg *Page) bool {
	for i := range t.lanes {
		l := &t.lanes[i]
		if !l.mu.TryLock() {
			continue
		}
		idle := l.pg == pg
		if idle {
			pg.open.Store(false)
			l.pg, l.next, l.end = nil, 0, 0
		}
		l.mu.Unlock()
		if idle {
			return true
		}
	}
	return false
}

// PageImage is one page's serialized payload for checkpointing.
type PageImage struct {
	FirstRID rel.RowID
	Img      []byte
}

// ImageExport streams a table's page images into a checkpoint: the pages
// in the directory when ExportImages was called, in row_id order, each
// serialized under its latch into one buffer that every image reuses, so
// a checkpoint holds one page image at a time, not a table's worth.
type ImageExport struct {
	// NextRowID and MaxFrozenRID are the table's row_id counters.
	NextRowID, MaxFrozenRID uint64
	pages                   []*Page
	next                    int
	buf                     []byte
}

// ExportImages starts a checkpoint's pass over the table's hot and cold
// pages. The engine quiesces transactions first; the table must not be
// mutated during the export.
func (t *Table) ExportImages() *ImageExport {
	t.dirMu.RLock()
	pages := append([]*Page(nil), t.dir...)
	t.dirMu.RUnlock()
	return &ImageExport{NextRowID: t.maxAssigned.Load(), MaxFrozenRID: t.maxFrozenRowID.Load(), pages: pages}
}

// Len returns the number of images the export yields.
func (x *ImageExport) Len() int { return len(x.pages) }

// Next serializes the next of the Len pages, loading it first if it is
// cold. The image is valid until the following call; the caller writes it
// with the page latch already released.
func (x *ImageExport) Next(io *Ctx) (PageImage, error) {
	pg := x.pages[x.next]
	x.next++
	pg.lt.LockExclusive(io.yieldFunc())
	defer pg.lt.UnlockExclusive()
	pl, err := pg.ensureResident(io)
	if err != nil {
		return PageImage{}, err
	}
	if n := pl.serializedSize(); cap(x.buf) < n {
		x.buf = make([]byte, 0, n)
	}
	x.buf = pl.serialize(x.buf[:0])
	return PageImage{FirstRID: pg.firstRowID, Img: x.buf}, nil
}

// ImportImages rebuilds the table's directory from a checkpoint export.
// The table must be freshly created (no rows ever inserted).
func (t *Table) ImportImages(images []PageImage, nextRowID, maxFrozenRID uint64) error {
	t.recMu.Lock()
	defer t.recMu.Unlock()
	t.dirMu.RLock()
	pristine := len(t.dir) == 0 && t.highRowID() == 0
	t.dirMu.RUnlock()
	if !pristine {
		return fmt.Errorf("table: ImportImages on non-empty table %d", t.ID)
	}
	for _, im := range images {
		pl, err := deserializePayload(t.Schema, t.PageCap, im.Img)
		if err != nil {
			return fmt.Errorf("table %d: import page %d: %w", t.ID, im.FirstRID, err)
		}
		pg := &Page{firstRowID: im.FirstRID, table: t, part: 0}
		pg.swip.Swizzle(pl)
		t.dirMu.Lock()
		t.dir = append(t.dir, pg)
		t.dirMu.Unlock()
		if t.pool != nil {
			t.pool.Register(pg, 0)
			t.pool.AddResident(0, int64(t.pf.PageSize()))
		}
	}
	// Later appends open fresh lane chunks strictly above nextRowID.
	t.nextRowID.Store(nextRowID)
	t.raiseMaxAssigned(nextRowID)
	t.maxFrozenRowID.Store(maxFrozenRID)
	return nil
}

// InsertAt places row at an explicit row_id anywhere in the key space:
// past the counter (fast-forwarding it, burning any gap) or between
// existing rows, splitting a full page if needed. Recovery and WAL-shipping
// replication use it because cross-writer GSN order only guarantees
// per-page order — inserts to different lane pages can arrive out of
// row_id order.
func (t *Table) InsertAt(rid rel.RowID, row rel.Row) error {
	if err := row.Conforms(t.Schema); err != nil {
		return err
	}
	t.recMu.Lock()
	defer t.recMu.Unlock()
	if uint64(rid) > t.highRowID() {
		t.fastForwardLocked(uint64(rid))
		return t.placeRight(rid, row)
	}
	// Out-of-order: the rid belongs to an existing page's range, or lies in
	// a burned gap below every page.
	pg := t.findPage(rid)
	if pg == nil {
		return t.insertAtPage(t.newPage(rid, 0, false), rid, row)
	}
	return t.insertAtPage(pg, rid, row)
}

// insertAtPage places (rid, row) into pg at its sorted slot, splitting a
// full page. Caller holds recMu.
func (t *Table) insertAtPage(pg *Page, rid rel.RowID, row rel.Row) error {
	pg.lt.LockExclusive(nil)
	pl, err := pg.ensureResident(nil)
	if err != nil {
		pg.lt.UnlockExclusive()
		return err
	}
	if pl.find(rid) >= 0 {
		pg.lt.UnlockExclusive()
		return fmt.Errorf("table: InsertAt %d already present", rid)
	}
	if pg.open.Load() {
		// An active lane owns this page's chunk. Only a burned gap below
		// the lane's frontier is safe to fill; re-inserting at or above it
		// would collide with a future lane assignment.
		if n := len(pl.IDs); n == 0 || rid > pl.IDs[n-1] {
			pg.lt.UnlockExclusive()
			return fmt.Errorf("table: InsertAt %d targets an active insert lane", rid)
		}
	}
	if pl.Rows.Full() {
		// Split the page in half and retry against the proper half.
		if err := t.splitPage(pg, pl); err != nil {
			pg.lt.UnlockExclusive()
			return err
		}
		pg.lt.UnlockExclusive()
		return t.insertIntoPage(rid, row)
	}
	err = insertSorted(pl, rid, row)
	pg.lt.UnlockExclusive()
	return err
}

// insertIntoPage re-routes and inserts after a split (recMu held).
func (t *Table) insertIntoPage(rid rel.RowID, row rel.Row) error {
	pg := t.findPage(rid)
	if pg == nil {
		return fmt.Errorf("table: no covering page for %d after split", rid)
	}
	pg.lt.LockExclusive(nil)
	defer pg.lt.UnlockExclusive()
	pl, err := pg.ensureResident(nil)
	if err != nil {
		return err
	}
	if pl.Rows.Full() {
		return fmt.Errorf("table: page for %d still full after split", rid)
	}
	return insertSorted(pl, rid, row)
}

// insertSorted places (rid, row) at its sorted slot in the payload.
func insertSorted(pl *Payload, rid rel.RowID, row rel.Row) error {
	at := sort.Search(len(pl.IDs), func(i int) bool { return pl.IDs[i] >= rid })
	if err := pl.Rows.Insert(at, row); err != nil {
		return err
	}
	pl.IDs = append(pl.IDs, 0)
	copy(pl.IDs[at+1:], pl.IDs[at:])
	pl.IDs[at] = rid
	pl.Deleted = append(pl.Deleted, false)
	copy(pl.Deleted[at+1:], pl.Deleted[at:])
	pl.Deleted[at] = false
	return nil
}

// splitPage moves the upper half of pg's rows into a new page placed after
// it in the directory. Caller holds recMu and pg's exclusive latch; the
// page's twin table must be empty (replication/recovery context).
func (t *Table) splitPage(pg *Page, pl *Payload) error {
	if pg.Twin.Len() > 0 {
		return fmt.Errorf("table: split of page with twin table entries")
	}
	half := len(pl.IDs) / 2
	right := &Page{firstRowID: pl.IDs[half], table: t, part: pg.part}
	rpl := &Payload{Rows: pax.NewPage(t.Schema, t.PageCap)}
	for i := half; i < len(pl.IDs); i++ {
		if _, err := rpl.Rows.Append(pl.Rows.Row(i)); err != nil {
			return err
		}
		rpl.IDs = append(rpl.IDs, pl.IDs[i])
		rpl.Deleted = append(rpl.Deleted, pl.Deleted[i])
	}
	for i := len(pl.IDs) - 1; i >= half; i-- {
		pl.Rows.Delete(i)
	}
	pl.IDs = pl.IDs[:half]
	pl.Deleted = pl.Deleted[:half]
	right.swip.Swizzle(rpl)

	t.dirMu.Lock()
	pos := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].firstRowID > pg.firstRowID })
	t.dir = append(t.dir, nil)
	copy(t.dir[pos+1:], t.dir[pos:])
	t.dir[pos] = right
	t.dirMu.Unlock()
	if t.pool != nil {
		t.pool.Register(right, right.part)
		t.pool.AddResident(right.part, int64(t.pf.PageSize()))
	}
	return nil
}
