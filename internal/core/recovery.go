package core

// Recover rebuilds the catalog and replays the write-ahead log into it,
// implementing redo over the log files (§8). Call it after Open
// and before any transactions.
//
// The catalog comes first: the checkpoint image's, then the log's catalog
// records in GSN order, so every table and index exists before any page
// image or row names it. A table or index declared beforehand must match
// its recovered definition (*SchemaMismatchError); one the history lacks is
// logged now, which imports a directory written before catalog records
// existed.
//
// The image's rows then load and fill every index, and the log suffix above
// the image's horizon replays through the same applier a standby uses
// (Redo): committed transactions only, in commit-timestamp order, keeping
// the indexes current as it goes. Records of transactions without a commit
// record are skipped — their effects were never made visible, and "Non-Force,
// Steal" page writes are irrelevant here because the directory is rebuilt
// from scratch.
func (e *Engine) Recover() (replayed int, err error) {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	hdr, images, err := e.readCheckpoint()
	if err != nil {
		return 0, err
	}
	recs, err := e.WAL.Recover()
	if err != nil {
		return 0, err
	}
	// A crash between the checkpoint rename and the old log files' removal
	// leaves checkpoint-covered records on disk; replaying them would duplicate
	// rows the image already holds. Checkpoint fast-forwards every writer
	// past the horizon before the image is durable, so records at or below
	// it are exactly the covered ones — drop them.
	rd := e.NewRedo()
	for _, r := range recs {
		if r.GSN > hdr.GSN {
			rd.Add(r)
		}
	}
	// A version 2 image holds no catalog: its tables are declared.
	var history [][]byte
	for _, ct := range images {
		history = append(history, ct.catalog...)
	}
	for _, r := range rd.catalog { // GSN order: the log's Recover sorts by GSN
		history = append(history, r.Payload)
	}
	rd.catalog = nil
	defined := make(map[string]bool)
	for _, raw := range history {
		c, err := e.applyCatalogRecord(raw)
		if err != nil {
			return 0, err
		}
		defined[c.String()] = true
	}
	if err := e.loadCheckpoint(hdr, images); err != nil {
		return 0, err
	}
	for _, t := range e.Tables() {
		if err := fillIndexes(t, t.Indexes()); err != nil {
			return 0, err
		}
	}
	if replayed, err = rd.apply(); err != nil {
		return replayed, err
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
