package phoebedb

import (
	"sort"
	"sync/atomic"
	"time"

	"phoebedb/internal/btree"
	"phoebedb/internal/fault"
	"phoebedb/internal/metrics"
	"phoebedb/internal/waitevent"
)

// This file wires the kernel's decentralized counters into the metrics
// registry (Prometheus endpoint, phoebectl stats) and materializes the
// pg_stat-style virtual tables served over the SQL protocol.

// Metrics returns the DB's live metrics registry. Callers may register
// additional sources.
func (db *DB) Metrics() *metrics.Registry { return db.reg }

// SlowLog returns the engine's slow-transaction log. Arm it with
// SlowLog().SetThreshold or Options.SlowTxnThreshold.
func (db *DB) SlowLog() *metrics.SlowLog { return &db.engine.Stats().SlowLog }

// buildRegistry registers every kernel counter, gauge, and histogram.
// Sources are read functions over the subsystems' own atomics, so
// registration happens once at Open and scrapes always see live values.
func buildRegistry(db *DB) *metrics.Registry {
	reg := metrics.NewRegistry()
	st := db.engine.Stats()

	reg.Counter("phoebe_txn_commits_total", "Committed transactions.", st.Commits.Load)
	reg.Counter("phoebe_txn_aborts_total", "Aborted transactions (rollbacks and failed commits).", st.Aborts.Load)
	reg.Counter("phoebe_txn_slow_total", "Transactions over the slow-transaction threshold.", st.SlowLog.Count)
	reg.Gauge("phoebe_txn_active", "Transactions currently running.", func() int64 {
		return int64(db.engine.Mgr.ActiveCount())
	})

	reg.Counter("phoebe_lock_table_waits_total", "Table-lock acquisitions that blocked.", st.TableLocks.Waits.Load)
	reg.Counter("phoebe_lock_table_timeouts_total", "Table-lock waits that timed out (deadlock recovery).", st.TableLocks.Timeouts.Load)
	reg.Counter("phoebe_lock_tuple_waits_total", "Tuple-lock / transaction-ID waits (low-urgency parks).", st.TupleLockWaits.Load)
	reg.Counter("phoebe_lock_table_spurious_wakeups_total", "Table-lock waiters woken grantable that re-queued (herd pressure).", st.TableLocks.SpuriousWakeups.Load)

	reg.Counter("phoebe_buffer_accesses_total", "Page accesses (hot or cold).", func() int64 {
		return db.engine.Pool.Stats().Accesses
	})
	reg.Counter("phoebe_buffer_hits_total", "Page accesses served from memory.", func() int64 {
		return db.engine.Pool.Stats().Hits()
	})
	reg.Counter("phoebe_buffer_misses_total", "Page accesses that loaded from disk.", func() int64 {
		return db.engine.Pool.Stats().Misses
	})
	reg.Counter("phoebe_buffer_evictions_total", "Pages evicted by the cooling protocol.", func() int64 {
		return db.engine.Pool.Stats().Evictions
	})
	reg.Gauge("phoebe_buffer_resident_bytes", "Main Storage resident footprint.", db.engine.Pool.ResidentBytes)

	reg.Counter("phoebe_wal_flushes_total", "WAL buffer drains that hit the device.", db.engine.WAL.Flushes)
	reg.Counter("phoebe_wal_group_waits_total", "Commit leaders that parked in the group-commit wait window before flushing.", db.engine.WAL.GroupWaits)
	reg.Counter("phoebe_wal_group_lead_early_total", "Group-commit leader waits ended before the deadline (batch complete, or covered by another flush).", db.engine.WAL.GroupLeadEarly)
	reg.Gauge("phoebe_wal_fsync_us", "Moving average of a WAL flush's device time (F): the longest a commit leader parks.", func() int64 {
		f, _ := db.engine.WAL.Window()
		return f.Microseconds()
	})
	reg.Gauge("phoebe_wal_commit_gap_us", "Moving average of the gap from a flush leader's arrival to the next commit's arrival (G); a leader parks only while it is below phoebe_wal_fsync_us.", func() int64 {
		_, g := db.engine.WAL.Window()
		return g.Microseconds()
	})

	io := db.engine.IO
	reg.Counter("phoebe_io_data_read_bytes_total", "Bytes read from the data page/block files.", io.DataRead.Load)
	reg.Counter("phoebe_io_data_write_bytes_total", "Bytes written to data files (page flushes, frozen blocks, checkpoints).", io.DataWrite.Load)
	reg.Counter("phoebe_io_wal_write_bytes_total", "Bytes written to the WAL.", io.WALWrite.Load)

	reg.Counter("phoebe_mvcc_fastpath_total", "Visibility checks served by the watermark fast path (no chain walk, no TxnMeta load).", st.MVCCFastPath.Load)
	reg.Counter("phoebe_mvcc_chain_walks_total", "Visibility checks that had to walk the UNDO version chain.", st.MVCCChainWalks.Load)
	reg.Counter("phoebe_mvcc_chain_links_total", "UNDO links traversed across all chain walks.", st.MVCCChainLinks.Load)
	reg.Counter("phoebe_mvcc_commit_dep_waits_total", "Reads that parked on a writer whose commit timestamp is at or below their snapshot until its commit record was durable.", st.CommitDepWaits.Load)

	reg.Counter("phoebe_sql_plan_cache_hits_total", "SQL statements served from a cached prepared-statement template.", db.planCache.Hits)
	reg.Counter("phoebe_sql_plan_cache_misses_total", "Cacheable SQL statements that had to lex, parse, and plan.", db.planCache.Misses)
	reg.Counter("phoebe_sql_join_rows_total", "Combined rows emitted by SQL JOIN executions.", db.sqlCounters.JoinRows.Load)
	reg.Counter("phoebe_sql_sorts_total", "In-memory sorts run for ORDER BY.", db.sqlCounters.Sorts.Load)
	reg.Counter("phoebe_sql_sort_avoided_total", "ORDER BY queries served directly in index scan order.", db.sqlCounters.SortAvoided.Load)

	cold := func(f func(s ColdStats) int64) func() int64 {
		return func() int64 { return f(db.engine.ColdStats()) }
	}
	reg.Counter("phoebe_cold_lookups_total", "Point reads routed to the cold tier.",
		cold(func(s ColdStats) int64 { return s.Lookups }))
	reg.Counter("phoebe_cold_segments_probed_total", "Cold segments whose blocks were actually read for a lookup.",
		cold(func(s ColdStats) int64 { return s.SegmentsProbed }))
	reg.Counter("phoebe_cold_bloom_negatives_total", "Cold lookups answered 'absent' by a segment bloom filter without I/O.",
		cold(func(s ColdStats) int64 { return s.BloomNegatives }))
	reg.Counter("phoebe_cold_block_cache_hits_total", "Cold point-path block loads (reads, deletes, warm-ups) served from the LRU of stored blocks; scans bypass it and are not counted.",
		cold(func(s ColdStats) int64 { return s.CacheHits }))
	reg.Counter("phoebe_cold_block_cache_misses_total", "Cold point-path block loads read from the block file; scans bypass the LRU and are not counted.",
		cold(func(s ColdStats) int64 { return s.CacheMisses }))
	reg.Counter("phoebe_cold_scan_blocks_total", "Cold blocks fetched by scans (from the LRU unpromoted, else decoded privately and not cached).",
		cold(func(s ColdStats) int64 { return s.ScanBlocks }))
	reg.Counter("phoebe_cold_scan_blocks_pruned_total", "Cold blocks scans skipped without I/O because a segment or block zone map refuted a predicate.",
		cold(func(s ColdStats) int64 { return s.ScanBlocksPruned }))
	reg.Counter("phoebe_scan_pages_total", "Hot pages full-table scans latched, pruned ones included.", st.ScanPages.Load)
	reg.Counter("phoebe_scan_pages_pruned_total", "Hot pages scans skipped unfiltered because the page's zone map refuted a predicate.", st.ScanPagesPruned.Load)
	reg.Counter("phoebe_cold_compactions_total", "Cold segment merges completed.",
		cold(func(s ColdStats) int64 { return s.Compactions }))
	reg.Counter("phoebe_cold_freeze_bytes_total", "Compressed bytes written by freezing (first cold write).",
		cold(func(s ColdStats) int64 { return s.FreezeBytes }))
	reg.Counter("phoebe_cold_compact_bytes_total", "Compressed bytes rewritten by compaction merges.",
		cold(func(s ColdStats) int64 { return s.CompactBytes }))
	reg.Gauge("phoebe_cold_segments", "Live cold segments across all tables.",
		cold(func(s ColdStats) int64 { return s.Segments }))

	reg.Counter("phoebe_gc_runs_total", "Garbage-collection rounds.", st.GCRuns.Load)
	reg.Counter("phoebe_gc_reclaimed_total", "UNDO records reclaimed by GC.", st.GCReclaimed.Load)
	reg.Gauge("phoebe_gc_backlog", "Unreclaimed UNDO records across all arenas.", func() int64 {
		return int64(db.engine.Mgr.LiveUndo())
	})
	reg.Counter("phoebe_checkpoints_total", "Completed checkpoints.", st.Checkpoints.Load)
	reg.Counter("phoebe_index_backfill_rows_total", "Index entries written by online CREATE INDEX backfill scans.", st.IndexBackfillRows.Load)

	index := func(f func(s *btree.Stats) *atomic.Int64) func() int64 {
		return func() (n int64) {
			for _, t := range db.engine.Tables() {
				for _, ix := range t.Indexes() {
					n += f(&ix.Tree.Stats).Load()
				}
			}
			return n
		}
	}
	reg.Counter("phoebe_btree_optimistic_restarts_total", "Optimistic B-Tree descents and leaf reads that restarted (a failed validation or latch upgrade, or a writer whose leaf was full), over all live indexes.",
		index(func(s *btree.Stats) *atomic.Int64 { return &s.OptimisticRestarts }))
	reg.Counter("phoebe_btree_shared_fallbacks_total", "B-Tree reads that ran out of optimistic restarts and took shared latches, over all live indexes.",
		index(func(s *btree.Stats) *atomic.Int64 { return &s.SharedFallbacks }))
	reg.Counter("phoebe_btree_exclusive_fallbacks_total", "B-Tree writes that took the exclusive descent from the root (full leaf, or out of optimistic restarts), over all live indexes.",
		index(func(s *btree.Stats) *atomic.Int64 { return &s.ExclusiveFallbacks }))

	if a := db.archiver; a != nil {
		reg.Counter("phoebe_archive_rounds_total", "WAL archiving rounds run.", a.Rounds)
		reg.Counter("phoebe_archive_bytes_total", "Log bytes copied into the WAL archive.", a.ArchivedBytes)
		reg.Counter("phoebe_archive_seals_total", "Archive epochs sealed by checkpoints.", a.Seals)
		reg.Counter("phoebe_archive_errors_total", "Archiving rounds and archive lag reads that failed.", a.Errors)
		reg.Gauge("phoebe_archive_lag_bytes", "Live WAL bytes not yet covered by the archive (-1: the log cannot be read at the archive's position).", a.LagBytes)
		reg.Gauge("phoebe_archive_horizon_gsn", "Highest GSN the archive durably holds.", func() int64 {
			return int64(a.HorizonGSN())
		})
		reg.Counter("phoebe_backup_base_total", "Completed base backups.", a.BaseBackups)
		reg.Gauge("phoebe_backup_last_base_gsn", "Horizon GSN of the newest base backup (0 = none).", func() int64 {
			return int64(a.LastBaseGSN())
		})
	}

	reg.Counter("phoebe_sched_executed_total", "Pool tasks completed.", db.pool.Executed)
	reg.Gauge("phoebe_sched_queue_depth", "Tasks waiting in the admission queue.", func() int64 {
		return int64(db.pool.QueueDepth())
	})
	reg.Counter("phoebe_sched_yields_high_total", "High-urgency yields (latch spins, page reads).", func() int64 {
		high, _ := db.pool.Yields()
		return high
	})
	reg.Counter("phoebe_sched_yields_low_total", "Low-urgency yields (lock waits park the slot).", func() int64 {
		_, low := db.pool.Yields()
		return low
	})

	reg.CounterVec("phoebe_wait_event_micros_total",
		"Cumulative off-CPU time by wait event, across all slots.", "event",
		func() []metrics.LabeledValue {
			_, nanos := db.waits.Totals()
			out := make([]metrics.LabeledValue, 0, waitevent.NumEvents-1)
			for e := 1; e < waitevent.NumEvents; e++ {
				out = append(out, metrics.LabeledValue{
					Label: waitevent.Event(e).String(), Value: nanos[e] / 1000,
				})
			}
			return out
		})
	reg.CounterVec("phoebe_wait_event_waits_total",
		"Completed waits by wait event, across all slots.", "event",
		func() []metrics.LabeledValue {
			count, _ := db.waits.Totals()
			out := make([]metrics.LabeledValue, 0, waitevent.NumEvents-1)
			for e := 1; e < waitevent.NumEvents; e++ {
				out = append(out, metrics.LabeledValue{
					Label: waitevent.Event(e).String(), Value: count[e],
				})
			}
			return out
		})

	reg.CounterVec("phoebe_failpoint_hits", "Evaluations of armed failpoint sites.", "site",
		func() []metrics.LabeledValue {
			hits := fault.HitCounts()
			sites := make([]string, 0, len(hits))
			for s := range hits {
				sites = append(sites, s)
			}
			sort.Strings(sites)
			out := make([]metrics.LabeledValue, 0, len(sites))
			for _, s := range sites {
				out = append(out, metrics.LabeledValue{Label: s, Value: hits[s]})
			}
			return out
		})

	reg.Histogram("phoebe_txn_latency_seconds",
		"End-to-end transaction latency merged across all task slots.", "", "",
		func() metrics.HistSnapshot { return db.rec.MergedHist() })
	// Chain lengths are logical link counts recorded through the duration
	// histogram: one nanosecond unit = one traversed UNDO link.
	reg.Histogram("phoebe_mvcc_chain_length",
		"UNDO links traversed per chain walk (unit: links, not time).", "", "",
		db.engine.Stats().MVCCChainLen.Snapshot)
	return reg
}

// --- Virtual stat tables -----------------------------------------------------

// Stat-table names served over the SQL protocol.
const (
	StatEngineTable     = "phoebe_stat_engine"
	StatLatencyTable    = "phoebe_stat_latency"
	StatActivityTable   = "phoebe_stat_activity"
	StatSlowTable       = "phoebe_stat_slow"
	StatTablesTable     = "phoebe_stat_tables"
	StatStatementsTable = "phoebe_stat_statements"
	StatASHTable        = "phoebe_stat_activity_history"
)

var (
	statEngineSchema = NewSchema(
		Column{Name: "name", Type: TString},
		Column{Name: "kind", Type: TString},
		Column{Name: "value", Type: TInt64},
	)
	statLatencySchema = NewSchema(
		Column{Name: "name", Type: TString},
		Column{Name: "label", Type: TString},
		Column{Name: "count", Type: TInt64},
		Column{Name: "p50_us", Type: TInt64},
		Column{Name: "p95_us", Type: TInt64},
		Column{Name: "p99_us", Type: TInt64},
		Column{Name: "max_us", Type: TInt64},
		Column{Name: "mean_us", Type: TInt64},
	)
	statActivitySchema = NewSchema(
		Column{Name: "slot", Type: TInt64},
		Column{Name: "xid", Type: TInt64},
		Column{Name: "start_ts", Type: TInt64},
		Column{Name: "age_ticks", Type: TInt64},
	)
	statSlowSchema = NewSchema(
		Column{Name: "xid", Type: TInt64},
		Column{Name: "slot", Type: TInt64},
		Column{Name: "committed", Type: TInt64},
		Column{Name: "total_us", Type: TInt64},
		Column{Name: "wait_us", Type: TInt64},
		Column{Name: "compute_us", Type: TInt64},
		Column{Name: "wal_us", Type: TInt64},
		Column{Name: "mvcc_us", Type: TInt64},
		Column{Name: "latch_us", Type: TInt64},
		Column{Name: "lock_us", Type: TInt64},
		Column{Name: "buffer_us", Type: TInt64},
		Column{Name: "gc_us", Type: TInt64},
		Column{Name: "stmt", Type: TString},
		Column{Name: "plan", Type: TString},
	)
	statTablesSchema = NewSchema(
		Column{Name: "name", Type: TString},
		Column{Name: "id", Type: TInt64},
		Column{Name: "pages", Type: TInt64},
		Column{Name: "indexes", Type: TInt64},
	)
	// statStatementsSchema appends one <event>_us column per wait event so
	// each statement row carries its full wait breakdown.
	statStatementsSchema = func() *Schema {
		cols := []Column{
			{Name: "statement", Type: TString},
			{Name: "calls", Type: TInt64},
			{Name: "errors", Type: TInt64},
			{Name: "total_us", Type: TInt64},
			{Name: "mean_us", Type: TInt64},
			{Name: "p95_us", Type: TInt64},
			{Name: "rows", Type: TInt64},
			{Name: "buf_misses", Type: TInt64},
			{Name: "wal_bytes", Type: TInt64},
		}
		for e := 1; e < waitevent.NumEvents; e++ {
			cols = append(cols, Column{Name: waitevent.Event(e).String() + "_us", Type: TInt64})
		}
		return NewSchema(cols...)
	}()
	statASHSchema = NewSchema(
		Column{Name: "sample_us", Type: TInt64},
		Column{Name: "slot", Type: TInt64},
		Column{Name: "xid", Type: TInt64},
		Column{Name: "state", Type: TString},
		Column{Name: "wait_event", Type: TString},
		Column{Name: "statement", Type: TString},
	)
)

func micros(d time.Duration) Value { return Int(d.Microseconds()) }

// RegisterStatTable registers an additional phoebe_stat_* virtual table
// materialized by fn on every read. Layers above the kernel use this to
// surface their own state over the SQL protocol (the wire front end
// registers phoebe_stat_server). Re-registering a name replaces it.
func (db *DB) RegisterStatTable(name string, fn func() (*Schema, []Row)) {
	db.statExtraMu.Lock()
	defer db.statExtraMu.Unlock()
	if db.statExtras == nil {
		db.statExtras = make(map[string]func() (*Schema, []Row))
	}
	db.statExtras[name] = fn
}

// StatTable materializes one virtual stat table, or ok=false for any name
// that is not one. Every call reads the live counters — two scrapes of the
// same table can and should differ under load.
func (db *DB) StatTable(name string) (*Schema, []Row, bool) {
	switch name {
	case StatEngineTable:
		var rows []Row
		for _, s := range db.reg.Samples() {
			rows = append(rows, Row{Str(s.Name), Str(s.Kind.String()), Int(s.Value)})
		}
		return statEngineSchema, rows, true

	case StatLatencyTable:
		var rows []Row
		for _, h := range db.reg.Histograms() {
			rows = append(rows, Row{
				Str(h.Name), Str(h.Label), Int(h.Snap.Count),
				micros(h.Snap.Quantile(0.50)), micros(h.Snap.Quantile(0.95)),
				micros(h.Snap.Quantile(0.99)), micros(time.Duration(h.Snap.Max)),
				micros(h.Snap.Mean()),
			})
		}
		return statLatencySchema, rows, true

	case StatActivityTable:
		now := db.engine.Mgr.Clock.Now()
		var rows []Row
		for _, a := range db.engine.Mgr.ActiveSnapshot() {
			age := int64(0)
			if now > a.StartTS {
				age = int64(now - a.StartTS)
			}
			rows = append(rows, Row{Int(int64(a.Slot)), Int(int64(a.XID)), Int(int64(a.StartTS)), Int(age)})
		}
		return statActivitySchema, rows, true

	case StatSlowTable:
		var rows []Row
		for _, t := range db.engine.Stats().SlowLog.Recent() {
			committed := int64(0)
			if t.Committed {
				committed = 1
			}
			row := Row{
				Int(int64(t.XID)), Int(int64(t.Slot)), Int(committed),
				micros(t.Total), micros(t.Wait),
			}
			for c := 0; c < metrics.NumComponents; c++ {
				row = append(row, micros(t.Comp[c]))
			}
			row = append(row, Str(t.Stmt), Str(t.Plan))
			rows = append(rows, row)
		}
		return statSlowSchema, rows, true

	case StatTablesTable:
		var rows []Row
		for _, t := range db.engine.Tables() {
			rows = append(rows, Row{
				Str(t.Name), Int(int64(t.ID)),
				Int(int64(t.Store.NumPages())), Int(int64(len(t.Indexes()))),
			})
		}
		return statTablesSchema, rows, true

	case StatStatementsTable:
		var rows []Row
		for _, sn := range db.stmtStats.Snapshot() {
			row := Row{
				Str(sn.Text), Int(sn.Calls), Int(sn.Errors),
				Int(sn.TotalNanos / 1000), Int(sn.MeanNanos() / 1000),
				micros(sn.Hist.Quantile(0.95)),
				Int(sn.Rows), Int(sn.BufMisses), Int(sn.WALBytes),
			}
			for e := 1; e < waitevent.NumEvents; e++ {
				row = append(row, Int(sn.WaitNanos[e]/1000))
			}
			rows = append(rows, row)
		}
		return statStatementsSchema, rows, true

	case StatASHTable:
		var rows []Row
		if db.ash != nil {
			for _, smp := range db.ash.snapshot() {
				state := "cpu"
				if smp.event != waitevent.EvNone {
					state = "wait"
				}
				rows = append(rows, Row{
					Int(smp.t.UnixMicro()), Int(int64(smp.slot)), Int(int64(smp.xid)),
					Str(state), Str(smp.event.String()),
					Str(db.stmtStats.TextByID(smp.stmtID)),
				})
			}
		}
		return statASHSchema, rows, true
	}
	db.statExtraMu.RLock()
	fn := db.statExtras[name]
	db.statExtraMu.RUnlock()
	if fn != nil {
		schema, rows := fn()
		return schema, rows, true
	}
	return nil, nil, false
}
