// Package core assembles PhoebeDB's kernel (§4): the temperature-layered
// storage engine, MVCC transaction management with in-memory UNDO, the
// decentralized lock manager, the parallel WAL with group commit, and the
// maintenance duties (page swap, garbage collection, freezing) that the
// co-routine scheduler drives.
//
// The engine is embedded: DDL is performed through the API and logged like
// any other change, transactions are executed on task slots (pool slots
// for the high-throughput path, reserved session slots for interactive
// use), and durability comes from the newest checkpoint image plus a WAL
// replay at open.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/btree"
	"phoebedb/internal/buffer"
	"phoebedb/internal/frozen"
	"phoebedb/internal/lock"
	"phoebedb/internal/metrics"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
	"phoebedb/internal/table"
	"phoebedb/internal/txn"
	"phoebedb/internal/undo"
	"phoebedb/internal/waitevent"
	"phoebedb/internal/wal"
)

// Errors surfaced by the engine API.
var (
	ErrNoSuchTable  = errors.New("core: no such table")
	ErrNoSuchIndex  = errors.New("core: no such index")
	ErrNoSuchColumn = errors.New("core: no such column")
	ErrDuplicate    = errors.New("core: duplicate key in unique index")
	ErrNotFound     = errors.New("core: row not found")
	ErrTxnDone      = errors.New("core: transaction already finished")
	// ErrExists marks a CREATE of a table or index whose name is taken.
	ErrExists = errors.New("already exists")
	// ErrTableNotEmpty rejects plain CreateIndex on a table that already
	// holds data; CreateIndexOnline backfills instead.
	ErrTableNotEmpty = errors.New("core: table not empty")
	// ErrIndexBackfilling rejects reads through an index whose online
	// backfill has not completed yet.
	ErrIndexBackfilling = errors.New("core: index backfill in progress")
)

// Config configures an Engine.
type Config struct {
	// Dir is the database directory (data pages, data blocks, WAL files).
	Dir string
	// PageSize is the data-page-file slot size (default 32 KiB).
	PageSize int
	// PageCap is rows per PAX page (default 64).
	PageCap int
	// BufferBytes is the Main Storage budget across partitions (default
	// 256 MiB).
	BufferBytes int64
	// Partitions is the buffer partition count, normally the worker count
	// (default 1).
	Partitions int
	// Slots is the total task-slot count: pool slots plus sessions
	// (default 8). Each slot has a private WAL writer, all of them draining
	// into one log file, and a private UNDO arena. The last slot is the
	// system slot: catalog records are logged there.
	Slots int
	// WALSync fsyncs on every WAL flush (the paper's evaluated setting).
	WALSync bool
	// LockTimeout bounds lock waits; expiry aborts the waiter (deadlock
	// recovery). Default 2s.
	LockTimeout time.Duration
	// ColdCacheBytes bounds the per-table LRU of stored cold blocks,
	// charged at their stored size (0 = frozen.DefaultCacheBytes).
	ColdCacheBytes int64
	// PartitionOf maps a task slot to its worker's buffer partition, so a
	// slot's page allocations land in the partition its worker maintains
	// (§7.1). Defaults to slot modulo Partitions.
	PartitionOf func(slot int) int
	// IO receives I/O byte accounting; one is created if nil.
	IO *metrics.IOCounters
	// Waits receives per-slot wait-event stamps from the engine's blocking
	// sites (table/tuple lock waits, buffer-miss reads, WAL flushes); may
	// be nil, in which case no stamping occurs.
	Waits *waitevent.Slots
	// SlowTxnThreshold arms the slow-transaction log: any transaction whose
	// total latency exceeds it is captured with its component breakdown.
	// Zero disables the log.
	SlowTxnThreshold time.Duration
}

func (c *Config) defaults() {
	if c.PageSize <= 0 {
		c.PageSize = 32 * 1024
	}
	if c.PageCap <= 0 {
		c.PageCap = 64
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 256 << 20
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 2 * time.Second
	}
	if c.IO == nil {
		c.IO = &metrics.IOCounters{}
	}
}

// Index is a secondary index over a table (§5.1: (key, row_id) pairs).
type Index struct {
	Name   string
	Cols   []int
	Unique bool
	Tree   *btree.Tree

	// hidden is set while an online CREATE INDEX backfill is filling the
	// index: writers maintain it (it is in Tbl.Indexes()) but readers and
	// the planner must not use it until the backfill completes. Stored
	// inverted so the zero value — every index built before data is
	// loaded, including recovery — is live.
	hidden atomic.Bool
}

// Live reports whether the index is complete and usable by readers. An
// index under online backfill is registered (so writers maintain it) but
// not live.
func (ix *Index) Live() bool { return !ix.hidden.Load() }

// Tbl is one catalog entry: storage layers plus the table lock block.
type Tbl struct {
	Name   string
	ID     uint32
	Schema *rel.Schema
	Store  *table.Table
	Frozen *frozen.Store
	// Lock is the table lock, stored with the table object per §7.2's
	// decentralized design.
	Lock lock.TableLock

	mu      sync.RWMutex
	indexes map[string]*Index
	// indexCache is the name-sorted index slice (see publishSorted): every
	// write statement walks it, with no map iteration, allocation or sort.
	indexCache atomic.Pointer[[]*Index]
}

// Indexes returns the table's indexes (stable order). The returned slice
// is shared and must not be mutated.
func (t *Tbl) Indexes() []*Index { return *t.indexCache.Load() }

// publishSorted stores in cache the values of m sorted by name: the rule
// of the catalog's two caches, the engine's tables and a table's indexes.
// The caller holds the lock that guards m and calls it on every change to
// m, so readers load the slice and never lock, copy or sort.
func publishSorted[T any](cache *atomic.Pointer[[]T], m map[string]T) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]T, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	cache.Store(&out)
}

// Index returns the named index or nil.
func (t *Tbl) Index(name string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[name]
}

// WALArchiver is the hook a WAL archive implementation (internal/backup)
// plugs into the checkpoint path. Seal is called with the engine quiesced,
// after the checkpoint image is durable and the log rotated to the file of
// cpGSN, and strictly BEFORE the older log files are removed: it must copy
// every record of those files into the archive (and make the copy durable)
// or return an error, in which case the checkpoint keeps the files —
// history is never destroyed before it is archived.
type WALArchiver interface {
	Seal(cpGSN uint64) error
}

// Engine is the database kernel.
type Engine struct {
	cfg   Config
	Mgr   *txn.Manager
	WAL   *wal.Manager
	Pool  *buffer.Pool
	IO    *metrics.IOCounters
	stats EngineStats

	// archiver, when set, is sealed before every checkpoint's removal of
	// the old log files.
	archiver WALArchiver
	// coldEpoch is the cold-manifest epoch the newest durable checkpoint
	// references; Checkpoint writes epoch+1 next.
	coldEpoch atomic.Uint64

	pf *storage.PageFile
	bf *storage.BlockFile

	warms warmQueue

	// txs holds each slot's transaction state, reused by every Begin on
	// that slot (see Tx).
	txs []*Tx

	// sysMu serialises catalog changes with each other, with Checkpoint and
	// with warming, which the DB runs on the system slot catalog records use.
	sysMu sync.Mutex
	// recovering is set from Open to the end of Recover when the directory
	// holds history; DDL meanwhile is not logged but collected in declared.
	recovering bool
	declared   []catalogChange

	mu          sync.RWMutex
	tables      map[string]*Tbl
	tablesByID  map[uint32]*Tbl
	nextTableID uint32
	tableList   atomic.Pointer[[]*Tbl] // name-sorted (see publishSorted)
}

// Open creates or opens an engine in cfg.Dir. An existing directory's
// checkpoint image and WAL are NOT read automatically: call Recover before
// any transaction.
func Open(cfg Config) (*Engine, error) {
	cfg.defaults()
	e := &Engine{
		cfg:        cfg,
		IO:         cfg.IO,
		tables:     make(map[string]*Tbl),
		tablesByID: make(map[uint32]*Tbl),
		recovering: hasHistory(cfg.Dir),
	}
	publishSorted(&e.tableList, e.tables)
	var err error
	e.pf, err = storage.OpenPageFile(filepath.Join(cfg.Dir, "data.pages"), cfg.PageSize, e.IO)
	if err != nil {
		return nil, err
	}
	e.bf, err = storage.OpenBlockFile(filepath.Join(cfg.Dir, "data.blocks"), e.IO)
	if err != nil {
		e.pf.Close()
		return nil, err
	}
	e.WAL, err = wal.Open(wal.Options{
		Dir:         filepath.Join(cfg.Dir, "wal"),
		Writers:     cfg.Slots,
		SyncOnFlush: cfg.WALSync,
		IO:          e.IO,
		Waits:       cfg.Waits,
	})
	if err != nil {
		e.pf.Close()
		e.bf.Close()
		return nil, err
	}
	e.Mgr = txn.NewManager(cfg.Slots)
	e.txs = make([]*Tx, cfg.Slots)
	for i := range e.txs {
		e.txs[i] = newTx(e, i)
	}
	e.Pool = buffer.New(cfg.Partitions, cfg.BufferBytes)
	e.stats.SlowLog.SetThreshold(cfg.SlowTxnThreshold)
	return e, nil
}

// Close flushes the WAL and releases files.
func (e *Engine) Close() error {
	var first error
	if err := e.WAL.Close(); err != nil {
		first = err
	}
	if err := e.pf.Sync(); err != nil && first == nil {
		first = err
	}
	if err := e.pf.Close(); err != nil && first == nil {
		first = err
	}
	if err := e.bf.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Waits returns the engine's wait-event slots (nil when Config.Waits was
// left unset).
func (e *Engine) Waits() *waitevent.Slots { return e.cfg.Waits }

// SetWALArchiver attaches a WAL archiver: from now on Checkpoint seals the
// archive (copying every record of the old log files out) before it is
// allowed to remove them. Attach before the first post-Open checkpoint.
func (e *Engine) SetWALArchiver(a WALArchiver) { e.archiver = a }

// CreateTable declares a relation. The definition is logged and flushed
// before the table becomes visible (see logCatalog).
func (e *Engine) CreateTable(name string, schema *rel.Schema) (*Tbl, error) {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	if t, _ := e.Table(name); t != nil {
		return nil, fmt.Errorf("core: table %q %w", name, ErrExists)
	}
	c := catalogChange{id: e.nextTableID + 1, name: name, cols: schema.Cols}
	if err := e.logCatalog(c); err != nil {
		return nil, err
	}
	return e.defineTable(c.id, name, schema), nil
}

// defineTable publishes a table under id. The caller holds sysMu (which
// every writer of nextTableID holds) and has checked the name and id free.
func (e *Engine) defineTable(id uint32, name string, schema *rel.Schema) *Tbl {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextTableID = max(e.nextTableID, id)
	fs := frozen.NewStore(e.bf, schema)
	fs.CacheBytes = e.cfg.ColdCacheBytes
	t := &Tbl{
		Name:    name,
		ID:      id,
		Schema:  schema,
		Store:   table.New(id, schema, e.cfg.PageCap, e.pf, e.Pool),
		Frozen:  fs,
		indexes: make(map[string]*Index),
	}
	publishSorted(&t.indexCache, t.indexes)
	t.Lock.Stats = &e.stats.TableLocks
	// One insert lane per buffer partition (= per worker): concurrent
	// workers append through disjoint open pages instead of one tail.
	t.Store.SetInsertLanes(e.cfg.Partitions)
	e.tables[name] = t
	e.tablesByID[id] = t
	publishSorted(&e.tableList, e.tables)
	return t
}

// CreateIndex declares a secondary index over the named columns, logged
// before it becomes visible like CreateTable. It only covers the
// empty-table DDL flow (schema declaration before data load or recovery):
// on a table that already holds pages it refuses with ErrTableNotEmpty
// instead of silently registering an index that misses the existing rows
// — use CreateIndexOnline for that.
func (e *Engine) CreateIndex(tableName, indexName string, cols []string, unique bool) (*Index, error) {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	t, d, err := e.indexDef(tableName, indexName, cols, unique)
	if err != nil {
		return nil, err
	}
	if tableHasData(t) {
		return nil, fmt.Errorf("%w: CREATE INDEX %q on %q requires an online backfill", ErrTableNotEmpty, indexName, tableName)
	}
	if err := e.logCatalog(d); err != nil {
		return nil, err
	}
	return addIndex(t, d, false), nil
}

// tableHasData reports whether the table may hold rows (conservatively:
// any hot/cold page or frozen block counts, even if every row in it has
// been deleted).
func tableHasData(t *Tbl) bool {
	return t.Store.NumPages() > 0 || t.Frozen.NumSegments() > 0
}

// indexDef resolves a new index's columns on the named table. The caller
// holds sysMu, so the name it finds free stays free.
func (e *Engine) indexDef(tableName, indexName string, cols []string, unique bool) (*Tbl, catalogChange, error) {
	t, err := e.Table(tableName)
	if err != nil {
		return nil, catalogChange{}, err
	}
	if t.Index(indexName) != nil {
		return nil, catalogChange{}, fmt.Errorf("core: index %q %w on %q", indexName, ErrExists, t.Name)
	}
	d := catalogChange{id: t.ID, index: true, name: indexName, keys: make([]int, len(cols)), unique: unique}
	for i, c := range cols {
		if d.keys[i] = t.Schema.ColIndex(c); d.keys[i] < 0 {
			return nil, catalogChange{}, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, c, t.Name)
		}
	}
	return t, d, nil
}

// addIndex adds index d to the table's catalog entry. With hidden set the
// index is maintained by writers from here on but reported non-live until
// the backfill promotes it.
func addIndex(t *Tbl, d catalogChange, hidden bool) *Index {
	ix := &Index{Name: d.name, Cols: d.keys, Unique: d.unique, Tree: btree.New()}
	ix.hidden.Store(hidden)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexes[d.name] = ix
	publishSorted(&t.indexCache, t.indexes)
	return ix
}

// dropIndex removes an index registration (backfill failure cleanup).
// Writers holding the previous index slice may still insert a few entries
// into the dropped tree; it is unreachable and garbage-collected.
func (e *Engine) dropIndex(t *Tbl, indexName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.indexes, indexName)
	publishSorted(&t.indexCache, t.indexes)
}

// Table resolves a table by name.
func (e *Engine) Table(name string) (*Tbl, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// TableByID resolves a table by its catalog id, or returns nil.
func (e *Engine) TableByID(id uint32) *Tbl {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tablesByID[id]
}

// Tables returns all tables sorted by name. The returned slice is shared
// and must not be mutated.
func (e *Engine) Tables() []*Tbl { return *e.tableList.Load() }

// indexKey builds the index entry key: the encoded key columns, suffixed
// with the row_id for non-unique indexes so entries stay distinct.
func indexKey(ix *Index, row rel.Row, rid rel.RowID) []byte {
	return indexKeyInto(nil, ix, row, rid)
}

// indexKeyInto is the allocation-free variant, appending to dst. Scans
// use it to recompute a visible row's entry key for stale-entry checks.
func indexKeyInto(dst []byte, ix *Index, row rel.Row, rid rel.RowID) []byte {
	for _, c := range ix.Cols {
		dst = rel.EncodeKey(dst, row[c])
	}
	if !ix.Unique {
		dst = rel.EncodeRowID(dst, rid)
	}
	return dst
}

// indexPrefix appends the search prefix for the given (possibly partial)
// key values to dst, so scan-heavy callers can reuse one buffer.
func indexPrefix(dst []byte, ix *Index, vals []rel.Value) []byte {
	return rel.EncodeKey(dst, vals...)
}

// --- Index entries ------------------------------------------------------------
//
// An entry belongs to the versions that have its key (Larson et al.): a
// write claims it, and it is released once no such version is reachable.

// claimKey stores key → rid in ix under the leaf latch unless the key
// names another row: that row's entry is replaced only if it is over, a
// row the caller found off the key (0 for none), and otherwise nothing is
// stored and the holder is returned. The write returned records what the
// store replaced. A non-unique key carries its rid: no other row holds it.
func claimKey(ix *Index, key []byte, rid, over rel.RowID) (idxOp, rel.RowID) {
	old, stored := ix.Tree.InsertIfAbsent(key, uint64(rid), func(old uint64) bool {
		return old == uint64(rid) || old == uint64(over)
	})
	if !stored {
		return idxOp{}, rel.RowID(old)
	}
	return idxOp{ix: ix, key: key, rid: rid, old: rel.RowID(old)}, 0
}

// releaseKey removes ix's entry key while it names rid, unless row rid,
// read through h under its exclusive page latch, still has the key: in
// its current version, or in one that a record newer than the newest
// reclaimed one ends, which an older snapshot or an unfinished writer's
// rollback still reaches. A nil h means no version of the row remains.
func releaseKey(ix *Index, key []byte, rid rel.RowID, h *table.Handle) {
	if h != nil {
		row, live := h.Row(), !h.Deleted()
		for rec := chainHead(h); ; rec = rec.Prev {
			if live && bytes.Equal(indexKey(ix, row, rid), key) {
				return
			}
			if rec == nil || rec.Reclaimed() || rec.Op == undo.OpInsert {
				break
			}
			applyDelta(row, rec)
			live = true
		}
	}
	ix.Tree.DeleteValue(key, uint64(rid))
}

// chainHead returns the newest record of h's row, reclaimed or not.
func chainHead(h *table.Handle) *undo.Record {
	if tt := h.TwinTable(false); tt != nil {
		if en := tt.Entry(h.RID, false); en != nil {
			return en.Head
		}
	}
	return nil
}

// applyDelta turns row, the version rec made, into the one before it.
func applyDelta(row rel.Row, rec *undo.Record) {
	for _, cv := range rec.Delta {
		row[cv.Col] = cv.Val
	}
}

// touches reports whether delta writes one of ix's columns.
func touches(ix *Index, delta []undo.ColVal) bool {
	for _, cv := range delta {
		if slices.Contains(ix.Cols, cv.Col) {
			return true
		}
	}
	return false
}

// --- Maintenance duties (§7.1) -----------------------------------------------

// MaintainWorker runs one round of the worker-local duties: page swaps for
// the worker's buffer partition and UNDO GC for the slots it owns. It is
// designed to be plugged into sched.Config.Maintain.
func (e *Engine) MaintainWorker(worker int) {
	if e.Pool.NeedsMaintain(worker) {
		e.Pool.Maintain(worker)
	}
	e.CollectGarbage()
}

// CollectGarbage runs one engine-wide GC round (§7.3): UNDO reclamation,
// which releases the index entries of the versions it reclaims and erases
// deleted tuples, then twin table collection. Returns the number of UNDO
// records reclaimed.
func (e *Engine) CollectGarbage() int {
	n := e.Mgr.CollectGarbage(func(r *undo.Record) {
		// A rolled-back record released what it claimed, and an insert
		// ends no version.
		if r.Dead() || r.Op == undo.OpInsert {
			return
		}
		if t := e.TableByID(r.TableID); t != nil {
			reclaimVersion(t, r)
		}
	})
	maxFrozen := e.Mgr.MaxFrozenXID()
	for _, t := range e.Tables() {
		t.Store.DropCollectibleTwins(maxFrozen)
	}
	e.stats.GCRuns.Add(1)
	e.stats.GCReclaimed.Add(int64(n))
	return n
}

// reclaimVersion releases the index keys of the version the reclaimed
// record r ended: r's before image over the row the walk from the chain
// head down to r rebuilds. An update that changes no indexed column costs
// the overlap test alone. A delete ended the row's last version, so the
// row goes, and with it the keys of every older version its chain links:
// no snapshot reaches them, and once the row is gone no reclaim could
// work them out.
func reclaimVersion(t *Tbl, r *undo.Record) {
	indexes := t.Indexes()
	erase := r.Op == undo.OpDelete
	if !erase && !slices.ContainsFunc(indexes, func(ix *Index) bool { return touches(ix, r.Delta) }) {
		return
	}
	_ = t.Store.WithRow(r.RowID, true, nil, func(h table.Handle) error {
		if erase && !h.Deleted() {
			return nil // no tombstone: nothing to erase
		}
		row, at, reached := h.Row(), &h, false
		if erase {
			at = nil
		}
		for rec := chainHead(&h); rec != nil && rec.Op != undo.OpInsert && (erase || !reached); rec = rec.Prev {
			applyDelta(row, rec)
			reached = reached || rec == r
			for _, ix := range indexes {
				if reached && (rec.Op == undo.OpDelete || touches(ix, rec.Delta)) {
					releaseKey(ix, indexKey(ix, row, r.RowID), r.RowID, at)
				}
			}
		}
		if erase {
			return h.Remove()
		}
		return nil
	})
}

// FreezeTables runs one freezing round (§5.2 case 2): for every table,
// detach up to maxPages coldest prefix pages whose decayed access count is
// at or below maxHot and compress them into the data block file. Returns
// the number of rows frozen.
func (e *Engine) FreezeTables(maxPages int, maxHot uint32) (int, error) {
	total := 0
	for _, t := range e.Tables() {
		cands, err := t.Store.DetachFrozenPrefix(maxPages, maxHot, nil)
		if err != nil {
			return total, err
		}
		var ids []rel.RowID
		var rows []rel.Row
		for _, c := range cands {
			for i, id := range c.Payload.IDs {
				if c.Payload.Deleted[i] {
					continue
				}
				ids = append(ids, id)
				rows = append(rows, c.Payload.Rows.Row(i))
			}
		}
		if len(ids) == 0 {
			continue
		}
		if err := t.Frozen.Freeze(ids, rows); err != nil {
			return total, err
		}
		total += len(ids)
	}
	return total, nil
}

// CompactCold runs at most one cold-segment merge per table — the
// rate-limited form the maintenance loop calls so compaction I/O never
// monopolizes a worker. Returns the number of segments merged.
func (e *Engine) CompactCold() (int, error) {
	total := 0
	for _, t := range e.Tables() {
		n, err := t.Frozen.Compact()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// CompactColdAll merges every table's cold tier until no level is over
// its fanout (tests and benchmarks; production uses CompactCold rounds).
func (e *Engine) CompactColdAll() (int, error) {
	total := 0
	for _, t := range e.Tables() {
		n, err := t.Frozen.CompactAll()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// ColdStats aggregates the cold-tier counters across tables.
func (e *Engine) ColdStats() frozen.ColdStats {
	var st frozen.ColdStats
	for _, t := range e.Tables() {
		st.Add(t.Frozen.Stats())
	}
	return st
}
