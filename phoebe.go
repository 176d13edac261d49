// Package phoebedb is a from-scratch Go reproduction of PhoebeDB (EDBT
// 2025): a disk-based RDBMS kernel for high-performance, cost-effective
// OLTP. It combines an in-memory data-centric storage engine with
// temperature-based hot/cold/frozen data layers and pointer swizzling, a
// co-routine-pool runtime with a pull-based scheduler, MVCC with in-memory
// UNDO logs and O(1) snapshots, hybrid optimistic/pessimistic concurrency
// control with decentralized lock management, and a parallel write-ahead
// log with Remote Flush Avoidance.
//
// # Quick start
//
//	db, _ := phoebedb.Open(phoebedb.Options{Dir: "demo-db"})
//	defer db.Close()
//	db.CreateTable("users", phoebedb.NewSchema(
//		phoebedb.Column{Name: "id", Type: phoebedb.TInt64},
//		phoebedb.Column{Name: "name", Type: phoebedb.TString},
//	))
//	db.CreateIndex("users", "users_pk", []string{"id"}, true)
//	db.Execute(func(tx *phoebedb.Tx) error {
//		_, err := tx.Insert("users", phoebedb.Row{phoebedb.Int(1), phoebedb.Str("ada")})
//		return err
//	})
//
// Execute runs the closure as one transaction on the co-routine pool:
// commit on nil return, rollback otherwise. For explicit transaction
// control use a Session, which reserves a dedicated task slot.
package phoebedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/frozen"
	"phoebedb/internal/metrics"
	"phoebedb/internal/rel"
	"phoebedb/internal/sched"
	"phoebedb/internal/sql"
	"phoebedb/internal/txn"
	"phoebedb/internal/waitevent"
)

// Re-exported relational primitives, so applications only import this
// package.
type (
	// Row is one tuple.
	Row = rel.Row
	// Value is one column value.
	Value = rel.Value
	// Column declares a schema attribute.
	Column = rel.Column
	// Schema describes a relation.
	Schema = rel.Schema
	// RowID is the internal tuple identifier.
	RowID = rel.RowID
	// Tx is a running transaction.
	Tx = core.Tx
	// Isolation selects the snapshot isolation level.
	Isolation = txn.Isolation
	// ColdStats aggregates cold-tier counters across all tables.
	ColdStats = frozen.ColdStats
)

// Column types.
const (
	TInt64   = rel.TInt64
	TFloat64 = rel.TFloat64
	TString  = rel.TString
)

// Isolation levels (PostgreSQL-compatible, §6.1).
const (
	ReadCommitted  = txn.ReadCommitted
	RepeatableRead = txn.RepeatableRead
)

// Value constructors.
var (
	Int       = rel.Int
	Float     = rel.Float
	Str       = rel.Str
	NewSchema = rel.NewSchema
)

// Options configures a DB.
type Options struct {
	// Dir is the database directory.
	Dir string
	// Workers is the worker-thread count (default GOMAXPROCS); each owns
	// a buffer partition and SlotsPerWorker task slots.
	Workers int
	// SlotsPerWorker is the task-slot count per worker (default 32, the
	// paper's evaluated setting).
	SlotsPerWorker int
	// BufferBytes is the Main Storage budget (default 256 MiB).
	BufferBytes int64
	// PageSize / PageCap tune the data page geometry (defaults 32 KiB /
	// 64 rows).
	PageSize, PageCap int
	// WALSync fsyncs WAL flushes on commit.
	WALSync bool
	// GroupCommitWait is the upper bound on how long a commit leader parks
	// for other slots' commits before issuing the shared fsync (grows the
	// batch one device write retires). 0 picks a default of 400µs when
	// WALSync is on; negative disables the wait. The wait arms on evidence
	// of concurrency — while recent flushes retired two or more commits,
	// plus one probe every 32nd flush — and ends early once an arriving
	// committer leaves no slot with buffered records short of a commit
	// record. A serial workload pays the probe only; two synchronous
	// clients pay the time until the second one's commit arrives.
	GroupCommitWait time.Duration
	// Isolation is the default level for Execute (ReadCommitted).
	Isolation Isolation
	// LockTimeout bounds lock waits (default 2s).
	LockTimeout time.Duration
	// ColdCacheBytes bounds the per-table LRU of decoded cold-segment
	// blocks, charged at their decoded size (0 = default 4 MiB).
	ColdCacheBytes int64
	// SlowTxnThreshold arms the slow-transaction log: transactions slower
	// than this are captured with their full component breakdown (see
	// SlowLog). Zero leaves it off.
	SlowTxnThreshold time.Duration
	// ASHSampleInterval is the active-session-history sampling cadence:
	// a background sampler captures every slot's (txn state, statement,
	// wait event) into a fixed ring exposed as
	// phoebe_stat_activity_history. 0 picks the 10ms default; negative
	// disables sampling.
	ASHSampleInterval time.Duration
	// ArchiveDir enables continuous WAL archiving into this directory: a
	// background archiver copies committed log bytes there, checkpoints
	// seal (and never truncate) archived history, and BaseBackup takes
	// online base backups into it. Restore and point-in-time recovery run
	// from this directory alone (phoebectl backup restore).
	ArchiveDir string
	// ArchiveInterval is the background archiver's polling cadence
	// (default 100ms). It bounds the archive lag: how much acknowledged
	// work an archive-only restore could lose if the primary's disk died.
	ArchiveInterval time.Duration
}

// DB is an open PhoebeDB instance: the kernel plus its co-routine pool.
type DB struct {
	engine *core.Engine
	pool   *sched.Pool
	rec    *metrics.Recorder
	reg    *metrics.Registry
	opts   Options

	maintainMu sync.Mutex // serializes system-slot maintenance work
	sysSlot    int        // the engine's last slot: warming, catalog records

	sessMu   sync.Mutex
	sessNext int

	archiver *backup.Archiver
	archErrs atomic.Int64
	archStop chan struct{}
	archDone chan error // the final round's error, sent as the loop exits

	// waits is the per-slot wait-event state stamped by the kernel's
	// blocking sites.
	waits *waitevent.Slots
	// stmtStats aggregates per-statement execution profiles keyed by the
	// plan cache's normalized fingerprint.
	stmtStats *metrics.StmtStats
	// ash samples slot activity into a fixed ring; nil when disabled.
	ash *ashSampler

	// statExtras holds virtual stat tables registered by layers above the
	// kernel (the wire server's phoebe_stat_server); see RegisterStatTable.
	statExtraMu sync.RWMutex
	statExtras  map[string]func() (*Schema, []Row)

	// planCache holds prepared-statement templates shared by all sessions.
	planCache *sql.PlanCache
	// scratch holds each task slot's statement scratch (normalized key,
	// bound literals, plan lists): a statement runs on one slot and a slot
	// runs one statement at a time, so the slot is its single owner.
	scratch []*sql.Scratch
	// sqlCounters aggregates executor statistics (join rows, sorts) across
	// all sessions for the metrics registry.
	sqlCounters sql.Counters
}

// sessions is the number of task slots reserved for Session use, and
// planCacheSize the number of statement shapes the plan cache holds.
const (
	sessions      = 4
	planCacheSize = 256
)

// Open creates or opens a database. To reopen an existing directory, call
// Recover before the first transaction.
func Open(opts Options) (*DB, error) {
	if opts.SlotsPerWorker <= 0 {
		opts.SlotsPerWorker = 32
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolSlots := workers * opts.SlotsPerWorker
	totalSlots := poolSlots + sessions + 1 // the system slot is the last
	spw := opts.SlotsPerWorker
	groupWait := opts.GroupCommitWait
	if groupWait == 0 && opts.WALSync {
		groupWait = 400 * time.Microsecond
	}
	if groupWait < 0 {
		groupWait = 0
	}
	waits := waitevent.New(totalSlots)
	eng, err := core.Open(core.Config{
		Dir:              opts.Dir,
		PageSize:         opts.PageSize,
		PageCap:          opts.PageCap,
		BufferBytes:      opts.BufferBytes,
		Partitions:       workers,
		Slots:            totalSlots,
		WALSync:          opts.WALSync,
		LockTimeout:      opts.LockTimeout,
		ColdCacheBytes:   opts.ColdCacheBytes,
		SlowTxnThreshold: opts.SlowTxnThreshold,
		Waits:            waits,
		// Pool slot IDs are contiguous per worker; session and system
		// slots fold onto workers round-robin.
		PartitionOf: func(slot int) int {
			if slot < poolSlots {
				return slot / spw
			}
			return slot - poolSlots
		},
		// Group commit: every pool slot shares one WAL file, so one
		// member's commit fsync covers every concurrently buffered
		// commit — across workers, not just within one worker's
		// co-routine set. That is what turns N simultaneous commits
		// into ~one fsync. Session and system slots keep private
		// files — they are interactive and must not convoy behind
		// pool commits.
		WALGroups: 1 + sessions + 1,
		WALGroupOf: func(slot int) int {
			if slot < poolSlots {
				return 0
			}
			return 1 + (slot - poolSlots)
		},
		GroupCommitWait: groupWait,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		engine:    eng,
		rec:       metrics.NewRecorder(),
		opts:      opts,
		sysSlot:   totalSlots - 1,
		sessNext:  poolSlots,
		waits:     waits,
		stmtStats: metrics.NewStmtStats(0),
	}
	db.scratch = make([]*sql.Scratch, totalSlots)
	for i := range db.scratch {
		db.scratch[i] = new(sql.Scratch)
	}
	if opts.ArchiveDir != "" {
		// A fresh archive attached to a database that already checkpointed
		// cannot hold the history the checkpoint absorbed; the archiver
		// records that horizon so restores demand a base backup covering it.
		var startGSN uint64
		if img, rerr := os.ReadFile(filepath.Join(opts.Dir, "checkpoint.db")); rerr == nil {
			if hdr, _, herr := core.ReadCheckpointHeader(img); herr == nil {
				startGSN = hdr.GSN
			}
		}
		arch, aerr := backup.OpenArchiver(filepath.Join(opts.Dir, "wal"), opts.ArchiveDir, startGSN)
		if aerr != nil {
			eng.Close()
			return nil, fmt.Errorf("phoebedb: open archive: %w", aerr)
		}
		db.archiver = arch
		eng.SetWALArchiver(arch)
		db.archStop = make(chan struct{})
		db.archDone = make(chan error, 1)
		interval := opts.ArchiveInterval
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		go db.archiveLoop(interval)
	}
	db.planCache = sql.NewPlanCache(planCacheSize)
	db.pool = sched.New(sched.Config{
		Workers:        workers,
		SlotsPerWorker: opts.SlotsPerWorker,
		Recorder:       db.rec,
		Waits:          waits,
		Maintain:       db.maintain,
	})
	db.pool.Start()
	if opts.ASHSampleInterval >= 0 {
		interval := opts.ASHSampleInterval
		if interval == 0 {
			interval = 10 * time.Millisecond
		}
		db.ash = newASHSampler(db, interval, 0)
		db.ash.start()
	}
	db.reg = buildRegistry(db)
	return db, nil
}

// maintain is the worker duty hook (§7.1): partition page swaps, garbage
// collection, frozen-block warming on the system slot, and one
// rate-limited cold-compaction merge — at most one segment merge per
// maintenance round, so background reorganization cannot monopolize a
// worker that foreground transactions are waiting on.
func (db *DB) maintain(worker int) {
	db.engine.MaintainWorker(worker)
	if db.maintainMu.TryLock() {
		db.engine.ProcessWarmQueue(db.sysSlot)
		db.engine.CompactCold()
		db.maintainMu.Unlock()
	}
}

// archiveLoop drives the background archiver until Close.
func (db *DB) archiveLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-db.archStop:
			// Final round so Close leaves the smallest possible archive lag;
			// Close reports its failure, since the archive then lacks the tail.
			_, err := db.archiver.Archive()
			if err != nil {
				db.archErrs.Add(1)
				err = fmt.Errorf("phoebedb: final archive round: %w", err)
			}
			db.archDone <- err
			return
		case <-t.C:
			if _, err := db.archiver.Archive(); err != nil {
				db.archErrs.Add(1)
			}
		}
	}
}

// Close stops the pool and closes the engine. It also reports a failed
// final archive round.
func (db *DB) Close() error {
	if db.ash != nil {
		db.ash.halt()
		db.ash = nil
	}
	var archErr error
	if db.archStop != nil {
		close(db.archStop)
		archErr = <-db.archDone
		db.archStop = nil
	}
	db.pool.Stop()
	return errors.Join(archErr, db.engine.Close())
}

// Engine exposes the kernel for benchmarks and diagnostics.
func (db *DB) Engine() *core.Engine { return db.engine }

// Recorder exposes the per-component metrics recorder.
func (db *DB) Recorder() *metrics.Recorder { return db.rec }

// Waits exposes the per-slot wait-event state.
func (db *DB) Waits() *waitevent.Slots { return db.waits }

// StmtStats exposes the per-statement aggregate store.
func (db *DB) StmtStats() *metrics.StmtStats { return db.stmtStats }

// CreateTable declares a relation. DDL invalidates the plan cache: any
// cached access path may be stale against the new catalog.
func (db *DB) CreateTable(name string, schema *Schema) error {
	_, err := db.engine.CreateTable(name, schema)
	if err == nil {
		db.planCache.Invalidate()
	}
	return err
}

// CreateIndex declares a secondary index and invalidates the plan cache
// (see CreateTable). On a table that already holds rows the index is
// built online: writers keep running while a snapshot scan plus
// version-chain catch-up fills the index, and it only becomes visible to
// the planner — and the plan cache is only invalidated — once the
// backfill completes (see internal/core CreateIndexOnline). A unique
// index over data that already contains duplicates fails with
// core.ErrDuplicate and leaves no trace.
func (db *DB) CreateIndex(table, index string, cols []string, unique bool) error {
	_, err := db.engine.CreateIndexOnline(table, index, cols, unique, db.Execute)
	if err == nil {
		db.planCache.Invalidate()
	}
	return err
}

// Recover rebuilds the catalog and the data from the checkpoint image and
// the WAL; call it before transactions when reopening an existing
// directory. Tables and indexes declared before it must match what it
// recovers (see internal/core Recover).
func (db *DB) Recover() (int, error) { return db.engine.Recover() }

// Execute runs fn as one transaction on a pool task slot: commit on nil,
// rollback on error. It blocks until the transaction finishes.
func (db *DB) Execute(fn func(tx *Tx) error) error {
	return db.ExecuteIso(db.opts.Isolation, fn)
}

// ExecuteIso is Execute at an explicit isolation level.
func (db *DB) ExecuteIso(iso Isolation, fn func(tx *Tx) error) error {
	var txErr error
	err := db.pool.SubmitWait(func(s *sched.Slot) {
		tx := db.engine.Begin(s.ID, iso, s.Metrics, s.Yield, s.Wait)
		if txErr = fn(tx); txErr != nil {
			tx.Rollback()
			return
		}
		txErr = tx.Commit()
	})
	if err != nil {
		return err
	}
	return txErr
}

// ExecuteTagged is Execute with the transaction's cost attributed to the
// named logical statement (e.g. "tpcc.NewOrder") in the per-statement
// aggregates: wall time, wait-event breakdown, buffer misses, and WAL
// bytes all land under tag in phoebe_stat_statements.
func (db *DB) ExecuteTagged(tag string, fn func(tx *Tx) error) error {
	st := db.stmtStats.Intern(tag)
	var txErr error
	err := db.pool.SubmitWait(func(s *sched.Slot) {
		span := db.stmtBegin(s.ID, st)
		tx := db.engine.Begin(s.ID, db.opts.Isolation, s.Metrics, s.Yield, s.Wait)
		tx.NoteStatement(tag)
		if txErr = fn(tx); txErr != nil {
			tx.Rollback()
		} else {
			txErr = tx.Commit()
		}
		db.stmtEnd(&span, 0, txErr)
	})
	if err != nil {
		return err
	}
	return txErr
}

// stmtSpan is one statement's open measurement: the slot's wait totals and
// WAL position at its start. A plain value the caller keeps on its stack.
type stmtSpan struct {
	st        *metrics.StmtStat
	slot      int
	start     time.Time
	walBefore int64
	before    waitevent.Snapshot
}

// stmtBegin snapshots a slot's wait totals and WAL position before a
// statement; stmtEnd differences them into st. The statement ID is
// published in the slot's waitevent word for the ASH sampler to resolve.
func (db *DB) stmtBegin(slot int, st *metrics.StmtStat) stmtSpan {
	span := stmtSpan{st: st, slot: slot}
	db.waits.SlotSnapshot(slot, &span.before)
	db.waits.SetStmt(slot, st.ID)
	span.walBefore = db.engine.WAL.Writer(slot).AppendedBytes()
	span.start = time.Now()
	return span
}

// stmtEnd closes the span stmtBegin opened.
func (db *DB) stmtEnd(span *stmtSpan, rows int64, err error) {
	sample := metrics.StmtSample{
		Elapsed:  time.Since(span.start),
		Rows:     rows,
		Err:      err != nil,
		WALBytes: db.engine.WAL.Writer(span.slot).AppendedBytes() - span.walBefore,
	}
	db.waits.SlotSnapshot(span.slot, &sample.Waits)
	db.waits.SetStmt(span.slot, 0)
	for e := 0; e < waitevent.NumEvents; e++ {
		sample.Waits.Count[e] -= span.before.Count[e]
		sample.Waits.Nanos[e] -= span.before.Nanos[e]
	}
	// Every buffer miss is one EvBufferIO wait, so the event count is
	// the statement's miss count.
	sample.BufMisses = sample.Waits.Count[waitevent.EvBufferIO]
	span.st.Record(&sample)
}

// Submit runs fn as one transaction without waiting for it; done (if not
// nil) receives the transaction's final error.
func (db *DB) Submit(fn func(tx *Tx) error, done chan<- error) error {
	return db.pool.Submit(func(s *sched.Slot) {
		tx := db.engine.Begin(s.ID, db.opts.Isolation, s.Metrics, s.Yield, s.Wait)
		err := fn(tx)
		if err != nil {
			tx.Rollback()
		} else {
			err = tx.Commit()
		}
		if done != nil {
			done <- err
		}
	})
}

// Freeze runs one freezing round over all tables (§5.2): up to maxPages
// coldest prefix pages per table with decayed access counts <= maxHot move
// to the compressed frozen layer. Returns rows frozen.
func (db *DB) Freeze(maxPages int, maxHot uint32) (int, error) {
	return db.engine.FreezeTables(maxPages, maxHot)
}

// CompactCold runs cold-tier compaction to quiescence: segments merge
// level by level until no level exceeds its fanout. Benchmarks and tests
// use it to reach a steady cold layout; the maintenance loop compacts
// incrementally on its own.
func (db *DB) CompactCold() (int, error) {
	db.maintainMu.Lock()
	defer db.maintainMu.Unlock()
	return db.engine.CompactColdAll()
}

// ColdStats sums cold-tier counters (lookups, bloom negatives, cache
// hits/misses, compactions, write amplification inputs) across tables.
func (db *DB) ColdStats() ColdStats { return db.engine.ColdStats() }

// ProcessWarmQueue warms read-hot frozen blocks back into hot storage.
func (db *DB) ProcessWarmQueue() (int, error) {
	db.maintainMu.Lock()
	defer db.maintainMu.Unlock()
	return db.engine.ProcessWarmQueue(db.sysSlot)
}

// CollectGarbage runs one engine-wide GC round (§7.3).
func (db *DB) CollectGarbage() int { return db.engine.CollectGarbage() }

// Checkpoint captures the full database state and truncates the WAL, so a
// later Recover replays only the log written afterwards. The engine must
// be quiesced (no in-flight transactions) — call it from a maintenance
// window.
func (db *DB) Checkpoint() error { return db.engine.Checkpoint() }

// Archiver exposes the WAL archiver, or nil when Options.ArchiveDir is
// unset. Used by the server, tooling, and tests.
func (db *DB) Archiver() *backup.Archiver { return db.archiver }

// ArchiveErrors reports background archiving rounds that failed.
func (db *DB) ArchiveErrors() int64 { return db.archErrs.Load() }

// BaseBackupInfo summarizes a completed online base backup.
type BaseBackupInfo struct {
	// Dir is the backup's directory under <archive>/base.
	Dir string
	// CheckpointGSN is the horizon of the checkpoint image captured.
	CheckpointGSN uint64
	// HorizonGSN is the backup horizon: restoring the backup reproduces
	// at least every transaction acknowledged before it began.
	HorizonGSN uint64
}

// BaseBackup takes an online base backup into the archive while the
// database keeps serving transactions. Requires Options.ArchiveDir.
func (db *DB) BaseBackup() (BaseBackupInfo, error) {
	if db.archiver == nil {
		return BaseBackupInfo{}, fmt.Errorf("phoebedb: base backup requires Options.ArchiveDir")
	}
	label, dir, err := db.archiver.BaseBackup(backup.BaseSource{
		DataDir: db.opts.Dir,
		MaxGSN:  db.engine.WAL.MaxGSN,
		RaiseGSN: func(g uint64) {
			for i := 0; i < db.engine.WAL.NumWriters(); i++ {
				db.engine.WAL.Writer(i).RaiseGSN(g)
			}
		},
		FlushWAL: db.engine.WAL.FlushAll,
	})
	if err != nil {
		return BaseBackupInfo{}, err
	}
	return BaseBackupInfo{Dir: dir, CheckpointGSN: label.CheckpointGSN, HorizonGSN: label.HorizonGSN}, nil
}

// Session reserves a dedicated task slot for explicit Begin/Commit
// control. Sessions are not safe for concurrent use; one transaction runs
// at a time per session.
type Session struct {
	db      *DB
	slot    int
	metrics *metrics.SlotMetrics
}

// Session allocates a session slot. It fails once all four are taken.
func (db *DB) Session() (*Session, error) {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	if db.sessNext >= db.sysSlot { // session slots end where the system slot begins
		return nil, fmt.Errorf("phoebedb: all %d session slots in use", sessions)
	}
	s := &Session{db: db, slot: db.sessNext, metrics: db.rec.NewSlot()}
	db.sessNext++
	return s, nil
}

// Begin starts a transaction on the session's slot.
func (s *Session) Begin(iso Isolation) *Tx {
	return s.db.engine.Begin(s.slot, iso, s.metrics, nil, nil)
}

// Stats is a point-in-time summary of engine activity.
type Stats struct {
	// TasksExecuted counts pool transactions completed.
	TasksExecuted int64
	// BufferResidentBytes is the Main Storage footprint.
	BufferResidentBytes int64
	// DataReadBytes / DataWriteBytes / WALWriteBytes are cumulative I/O.
	DataReadBytes, DataWriteBytes, WALWriteBytes int64
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	io := db.engine.IO.Snapshot()
	return Stats{
		TasksExecuted:       db.pool.Executed(),
		BufferResidentBytes: db.engine.Pool.ResidentBytes(),
		DataReadBytes:       io.DataRead,
		DataWriteBytes:      io.DataWrite,
		WALWriteBytes:       io.WALWrite,
	}
}
