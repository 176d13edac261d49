package core

import (
	"sync/atomic"

	"phoebedb/internal/lock"
	"phoebedb/internal/metrics"
)

// EngineStats are the engine-wide always-on counters. Everything here is
// atomic and incremented at the source (commit path, lock manager, GC
// rounds), so scraping is race-free while transactions run. The cost per
// increment is one uncontended atomic add — the same bookkeeping
// partitioning argument as §7.1, since each counter is touched either by
// one slot at a time or rarely.
type EngineStats struct {
	// Commits and Aborts count finished transactions by outcome.
	Commits atomic.Int64
	Aborts  atomic.Int64

	// TupleLockWaits counts low-urgency waits on tuple locks or conflicting
	// transaction IDs (§7.2); TableLockWaits/TableLockTimeouts come from
	// the decentralized table-lock blocks.
	TupleLockWaits atomic.Int64
	TableLocks     lock.Stats

	// MVCCFastPath counts visibility checks satisfied by the watermark
	// fast path (stamped commit timestamp below the global watermark: no
	// TxnMeta load, no chain walk). MVCCChainWalks counts checks that had
	// to reconstruct an older version by walking the chain, MVCCChainLinks
	// the total links those walks traversed, and MVCCChainLen the per-walk
	// length distribution (dimensionless: 1 "nanosecond" = 1 link). The
	// scalar counters are flushed once per transaction from its private
	// VisStats; the histogram is observed per walk.
	MVCCFastPath   atomic.Int64
	MVCCChainWalks atomic.Int64
	MVCCChainLinks atomic.Int64
	MVCCChainLen   metrics.Histogram
	// CommitDepWaits counts reads that parked on a writer whose commit
	// timestamp is at or below their snapshot until its commit was durable.
	CommitDepWaits atomic.Int64

	// GCRuns and GCReclaimed count garbage-collection rounds and the UNDO
	// records they reclaimed.
	GCRuns      atomic.Int64
	GCReclaimed atomic.Int64

	// Checkpoints counts completed checkpoints.
	Checkpoints atomic.Int64

	// ScanPages counts the hot pages full-table scans latched;
	// ScanPagesPruned counts those they skipped unfiltered because a page
	// zone refuted a predicate. Each scan adds its totals once, at its end.
	ScanPages       atomic.Int64
	ScanPagesPruned atomic.Int64

	// IndexBackfillRows counts rows scanned into an index by online
	// CREATE INDEX backfills (snapshot scan plus version-chain catch-up).
	IndexBackfillRows atomic.Int64

	// SlowLog captures transactions over the configured threshold with
	// their full component breakdown.
	SlowLog metrics.SlowLog
}

// Stats returns the engine's live counter block.
func (e *Engine) Stats() *EngineStats { return &e.stats }
