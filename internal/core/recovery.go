package core

import (
	"errors"
	"fmt"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/wal"
)

// Recover rebuilds the catalog and replays the write-ahead log into it,
// implementing ARIES-style redo over the per-slot log files merged by GSN
// (§8). Call it after Open and before any transactions.
//
// The catalog comes first: the checkpoint image's, then the log's catalog
// records in GSN order, so every table exists before any page image or row
// names it. A table or index declared beforehand must match its recovered
// definition (*SchemaMismatchError); one the history lacks is logged now,
// which imports a directory written before catalog records existed.
//
// Replay is redo-only: records of transactions without a commit record are
// skipped (their effects were never made visible, and "Non-Force, Steal"
// page writes are irrelevant here because the directory is rebuilt from
// scratch). Committed deletes are applied as physical removals — they are
// globally visible after a restart. Secondary indexes are rebuilt from the
// recovered rows. Replay starts from the newest checkpoint when one
// exists, bounding redo work to the post-checkpoint log suffix.
func (e *Engine) Recover() (replayed int, err error) {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	hdr, images, err := e.readCheckpoint()
	if err != nil {
		return 0, err
	}
	// A version 2 image holds no catalog: its tables are declared.
	var history [][]byte
	for _, ct := range images {
		history = append(history, ct.catalog...)
	}
	recs, err := wal.Recover(e.WAL.Dir())
	if err != nil {
		return 0, err
	}
	// A crash between the checkpoint rename and the WAL truncation leaves
	// checkpoint-covered records on disk; replaying them would duplicate
	// rows the image already holds. Checkpoint fast-forwards every writer
	// past the horizon before the image is durable, so records at or below
	// it are exactly the covered ones — drop them.
	kept := recs[:0]
	for _, r := range recs {
		if r.GSN <= hdr.GSN {
			continue
		}
		kept = append(kept, r)
		if r.Type == wal.RecCatalog {
			history = append(history, r.Payload)
		}
	}
	recs = kept
	defined := make(map[string]bool)
	for _, raw := range history {
		c, err := decodeCatalog(raw)
		if err == nil {
			err = e.applyCatalog(c)
		}
		if err != nil {
			return 0, err
		}
		defined[c.String()] = true
	}
	if err := e.loadCheckpoint(hdr, images); err != nil {
		return 0, err
	}
	committed := make(map[uint64]bool)
	var maxTS, maxGSN uint64
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			committed[r.XID] = true
			if r.RowID > maxTS { // commit records carry cts in RowID
				maxTS = r.RowID
			}
		}
		if ts := clock.StartTS(r.XID); ts > maxTS {
			maxTS = ts
		}
		if r.GSN > maxGSN {
			maxGSN = r.GSN
		}
	}
	for _, r := range recs {
		switch r.Type {
		case wal.RecCommit, wal.RecAbort, wal.RecCatalog:
			continue
		}
		if !committed[r.XID] {
			continue
		}
		t := e.TableByID(r.TableID)
		if t == nil {
			return replayed, fmt.Errorf("core: recovery references unknown table id %d", r.TableID)
		}
		switch r.Type {
		case wal.RecInsert:
			row, derr := rel.DecodeRow(r.Payload)
			if derr != nil {
				return replayed, fmt.Errorf("core: recovery insert payload: %w", derr)
			}
			if aerr := t.Store.InsertAt(rel.RowID(r.RowID), row); aerr != nil {
				return replayed, aerr
			}
		case wal.RecUpdate:
			cols, vals, derr := rel.DecodeDelta(r.Payload)
			if derr != nil {
				return replayed, fmt.Errorf("core: recovery update payload: %w", derr)
			}
			werr := t.Store.WithRow(rel.RowID(r.RowID), true, nil, func(h table.Handle) error {
				for i, c := range cols {
					h.SetCol(c, vals[i])
				}
				return nil
			})
			if werr != nil {
				return replayed, fmt.Errorf("core: recovery update row %d: %w", r.RowID, werr)
			}
		case wal.RecDelete:
			// A committed delete is globally visible now: physical removal.
			// Rows frozen at checkpoint time are tombstoned in the frozen
			// layer instead (warming logs a delete of the frozen rid).
			derr := t.Store.RemoveRow(rel.RowID(r.RowID), nil)
			if errors.Is(derr, table.ErrFrozen) {
				_, derr = t.Frozen.MarkDeleted(rel.RowID(r.RowID))
			}
			if errors.Is(derr, table.ErrNotFound) {
				derr = nil // already erased (idempotent redo)
			}
			if derr != nil {
				return replayed, fmt.Errorf("core: recovery delete row %d: %w", r.RowID, derr)
			}
		}
		replayed++
	}
	// Fast-forward clocks past everything recovered so new transactions
	// and log records sort strictly after history.
	e.Mgr.Clock.AdvanceTo(maxTS + 1)
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).AdvanceGSN(maxGSN)
	}
	// Rebuild secondary indexes from the recovered base tables.
	for _, t := range e.Tables() {
		if err := fillIndexes(t, t.Indexes()); err != nil {
			return replayed, err
		}
	}
	e.recovering = false
	for _, c := range e.declared {
		if !defined[c.String()] {
			if err := e.logCatalog(c); err != nil {
				return replayed, err
			}
		}
	}
	e.declared = nil
	return replayed, nil
}
