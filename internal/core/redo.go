package core

import (
	"errors"
	"fmt"
	"sort"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/wal"
)

// Redo applies committed WAL records to an engine below MVCC: the one redo
// path behind crash recovery (Engine.Recover) and the WAL-shipping standby
// (internal/replica). It buffers records by transaction until their commit
// (a torn flush, or a log an earlier release wrote, holds some without
// one) and drops a transaction on an abort record, which only such a log
// holds; Apply applies catalog records in GSN order, then committed
// transactions in commit-timestamp order — the serialization order of
// conflicting writes — keeping every index current record by record.
// Redo is not safe for concurrent use.
type Redo struct {
	e       *Engine
	pending map[uint64][]wal.Record // xid -> data records, in log order
	commits []redoCommit            // unapplied commits, in arrival order
	catalog []wal.Record            // unapplied catalog records
	// maxTS and maxGSN are the highest timestamp and GSN among the records
	// added; Apply fast-forwards the engine's clocks past them.
	maxTS, maxGSN uint64
}

type redoCommit struct{ xid, cts uint64 }

// NewRedo returns an empty applier over the engine.
func (e *Engine) NewRedo() *Redo {
	return &Redo{e: e, pending: make(map[uint64][]wal.Record)}
}

// Add buffers one record for Apply.
func (rd *Redo) Add(r wal.Record) {
	switch r.Type {
	case wal.RecCommit:
		rd.commits = append(rd.commits, redoCommit{r.XID, r.RowID}) // cts travels in RowID
		rd.maxTS = max(rd.maxTS, r.RowID)
	case wal.RecAbort:
		delete(rd.pending, r.XID)
	case wal.RecCatalog:
		rd.catalog = append(rd.catalog, r)
	default:
		rd.pending[r.XID] = append(rd.pending[r.XID], r)
	}
	rd.maxTS = max(rd.maxTS, clock.StartTS(r.XID))
	rd.maxGSN = max(rd.maxGSN, r.GSN)
}

// Apply applies the buffered catalog records, then the transactions of
// every buffered commit, and fast-forwards the engine's transaction clock
// and WAL GSN clocks past every record added, so new transactions and log
// records sort after history. It returns the number of data records
// applied. On an error the failing record and everything after it stay
// buffered.
func (rd *Redo) Apply() (int, error) {
	rd.e.sysMu.Lock()
	defer rd.e.sysMu.Unlock()
	sort.SliceStable(rd.catalog, func(i, j int) bool { return rd.catalog[i].GSN < rd.catalog[j].GSN })
	for len(rd.catalog) > 0 {
		if _, err := rd.e.applyCatalogRecord(rd.catalog[0].Payload); err != nil {
			return 0, fmt.Errorf("core: redo catalog record: %w", err)
		}
		rd.catalog = rd.catalog[1:]
	}
	return rd.apply()
}

// apply redoes the buffered commits' transactions in commit-timestamp
// order. The caller holds sysMu.
func (rd *Redo) apply() (applied int, err error) {
	rd.e.Mgr.Clock.AdvanceTo(rd.maxTS + 1)
	for i := 0; i < rd.e.WAL.NumWriters(); i++ {
		rd.e.WAL.Writer(i).RaiseGSN(rd.maxGSN)
	}
	sort.SliceStable(rd.commits, func(i, j int) bool { return rd.commits[i].cts < rd.commits[j].cts })
	for i, c := range rd.commits {
		recs := rd.pending[c.xid]
		for j, r := range recs {
			if err := rd.e.redo(r); err != nil {
				rd.pending[c.xid] = recs[j:]
				rd.commits = rd.commits[i:]
				return applied, fmt.Errorf("core: redo %s table %d row %d: %w", r.Type, r.TableID, r.RowID, err)
			}
			applied++
		}
		delete(rd.pending, c.xid)
	}
	rd.commits = rd.commits[:0]
	return applied, nil
}

// redo applies one committed data record and keeps the table's indexes
// current.
func (e *Engine) redo(r wal.Record) error {
	t := e.TableByID(r.TableID)
	if t == nil {
		return fmt.Errorf("unknown table id %d", r.TableID)
	}
	rid := rel.RowID(r.RowID)
	switch r.Type {
	case wal.RecInsert:
		row, err := rel.DecodeRow(r.Payload)
		if err != nil {
			return err
		}
		if err := t.Store.InsertAt(rid, row); err != nil {
			return err
		}
		for _, ix := range t.Indexes() {
			ix.Tree.Insert(indexKey(ix, row, rid), uint64(rid))
		}
		return nil
	case wal.RecUpdate:
		cols, vals, err := rel.DecodeDelta(r.Payload)
		if err != nil {
			return err
		}
		for i, c := range cols {
			if c >= len(t.Schema.Cols) || vals[i].Kind != t.Schema.Cols[c].Type {
				return fmt.Errorf("update of column %d does not match table %q", c, t.Name)
			}
		}
		// A changed key moves: the old entry is released, the new one stored.
		var moved []*Index
		return t.Store.WithRow(rid, true, nil, func(h table.Handle) error {
			for _, ix := range t.Indexes() {
				if keyChanges(ix, &h, cols, vals) {
					releaseKey(ix, indexKey(ix, h.Row(), rid), rid, nil)
					moved = append(moved, ix)
				}
			}
			for i, c := range cols {
				h.SetCol(c, vals[i])
			}
			for _, ix := range moved {
				ix.Tree.Insert(indexKey(ix, h.Row(), rid), uint64(rid))
			}
			return nil
		})
	case wal.RecDelete:
		// A committed delete is globally visible after a restart and on a
		// standby alike: the row is removed, not tombstoned. A row frozen
		// here is tombstoned in the frozen layer instead.
		var row rel.Row
		err := t.Store.WithRow(rid, false, nil, func(h table.Handle) error {
			row = h.Row()
			return nil
		})
		if err == nil {
			err = t.Store.RemoveRow(rid, nil)
		} else if errors.Is(err, table.ErrFrozen) {
			var found bool
			if row, found, err = t.Frozen.Get(rid); err == nil && !found {
				err = table.ErrNotFound
			}
			if err == nil {
				_, err = t.Frozen.MarkDeleted(rid)
			}
		}
		if err != nil {
			return err
		}
		for _, ix := range t.Indexes() {
			releaseKey(ix, indexKey(ix, row, rid), rid, nil)
		}
		return nil
	default:
		return fmt.Errorf("unexpected record type %v", r.Type)
	}
}
