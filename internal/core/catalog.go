package core

import (
	"fmt"
	"os"
	"path/filepath"

	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
	"phoebedb/internal/wal"
)

// SchemaMismatchError reports a table or index whose declared definition
// differs from the one the checkpoint image or the log records.
type SchemaMismatchError struct{ Declared, Recovered string }

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("core: declared %s, but the recovered catalog has %s", e.Declared, e.Recovered)
}

// String renders the change; equal definitions render equally.
func (c catalogChange) String() string {
	if c.index {
		return fmt.Sprintf("index %q on table id %d (columns %v, unique %v)", c.name, c.id, c.keys, c.unique)
	}
	return fmt.Sprintf("table %q id %d %s", c.name, c.id, rel.NewSchema(c.cols...))
}

// mismatch reports a declared definition that differs from the recovered.
func mismatch(declared, recovered catalogChange) error {
	if declared.String() == recovered.String() {
		return nil
	}
	return &SchemaMismatchError{declared.String(), recovered.String()}
}

// indexChange is ix's definition on t.
func indexChange(t *Tbl, ix *Index) catalogChange {
	return catalogChange{id: t.ID, index: true, name: ix.Name, keys: ix.Cols, unique: ix.Unique}
}

// hasHistory reports whether dir holds a checkpoint image or a log record.
// A log file's size says nothing: space reserved past its last record
// reads as zeros.
func hasHistory(dir string) bool {
	if st, err := os.Stat(filepath.Join(dir, "checkpoint.db")); err == nil && st.Size() > 0 {
		return true
	}
	return wal.HasRecords(filepath.Join(dir, "wal"))
}

// logCatalog makes a catalog change durable before the caller publishes
// it, on the system slot (the last). The record is a GSN cut: its GSN
// exceeds every GSN assigned so far, and every writer is raised past it
// before the change becomes visible, so each record that depends on the
// change sorts after it — no replay, PITR target or standby round can hold
// a row without its table. While the directory's history awaits Recover the
// change is only remembered, for Recover to match or log.
func (e *Engine) logCatalog(c catalogChange) error {
	if e.recovering {
		e.declared = append(e.declared, c)
		return nil
	}
	w := e.WAL.Writer(e.WAL.NumWriters() - 1)
	rec := wal.Record{Type: wal.RecCatalog, GSN: w.NextGSN(e.WAL.MaxGSN()), TableID: c.id, Payload: encodeCatalog(c)}
	w.Append(&rec)
	if err := w.Flush(); err != nil {
		return fmt.Errorf("core: log %s: %w", c, err)
	}
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).RaiseGSN(rec.GSN)
	}
	return fault.Eval(fault.CatalogPrePublish)
}

// applyCatalogRecord decodes a RecCatalog payload and applies it.
func (e *Engine) applyCatalogRecord(payload []byte) (catalogChange, error) {
	c, err := decodeCatalog(payload)
	if err == nil {
		err = e.applyCatalog(c)
	}
	return c, err
}

// applyCatalog makes the catalog agree with a recorded change without
// logging it: what is missing is created, what exists under the name or id
// must match (*SchemaMismatchError). A new index over rows (on a standby;
// recovery applies the catalog before it loads any row) is filled before
// it goes live. The caller holds sysMu.
func (e *Engine) applyCatalog(c catalogChange) error {
	if !c.index {
		t, _ := e.Table(c.name)
		if t == nil {
			t = e.TableByID(c.id)
		}
		if t == nil {
			e.defineTable(c.id, c.name, rel.NewSchema(c.cols...))
			return nil
		}
		return mismatch(catalogChange{id: t.ID, name: t.Name, cols: t.Schema.Cols}, c)
	}
	t := e.TableByID(c.id)
	if t == nil {
		return fmt.Errorf("core: catalog defines index %q on unknown table id %d", c.name, c.id)
	}
	if ix := t.Index(c.name); ix != nil {
		return mismatch(indexChange(t, ix), c)
	}
	for _, k := range c.keys {
		if k < 0 || k >= len(t.Schema.Cols) {
			return fmt.Errorf("core: catalog index %q names column %d of table %q", c.name, k, t.Name)
		}
	}
	fill := tableHasData(t)
	ix := addIndex(t, c, fill)
	if !fill {
		return nil
	}
	if err := fillIndexes(t, []*Index{ix}); err != nil {
		e.dropIndex(t, ix.Name)
		return err
	}
	ix.hidden.Store(false)
	return nil
}

// fillIndexes inserts an entry for every live row of t into each index:
// the frozen layer first, then hot/cold pages.
func fillIndexes(t *Tbl, indexes []*Index) error {
	if len(indexes) == 0 {
		return nil
	}
	add := func(rid rel.RowID, row rel.Row) bool {
		for _, ix := range indexes {
			ix.Tree.Insert(indexKey(ix, row, rid), uint64(rid))
		}
		return true
	}
	if err := t.Frozen.ScanLive(add); err != nil {
		return err
	}
	return t.Store.Scan(nil, func(rid rel.RowID, row rel.Row, _ *table.Handle) bool { return add(rid, row) })
}
