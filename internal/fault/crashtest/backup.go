package crashtest

// Backup/restore crash harness: drives the kv workload against an engine
// with a WAL archiver attached, crashes the archiver, or the checkpoint
// around its seal, at one of fault.BackupSites() (abandoning engine and
// archiver like a killed process), then "restarts" — reopens both, lets
// the archiver resync and catch up, takes a fresh base backup — and
// finally restores the archive into an empty directory and verifies the
// restored database matches the primary row for row. TPCCBackupRestore does the same end to end under a
// live TPC-C load with an online base backup taken mid-run.

import (
	"fmt"
	"path/filepath"
	"time"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
	"phoebedb/internal/tpcc"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

// baseSource wires an open engine's WAL hooks into an online base backup.
func baseSource(e *core.Engine, dir string) backup.BaseSource {
	return backup.BaseSource{
		DataDir: dir,
		MaxGSN:  e.WAL.MaxGSN,
		RaiseGSN: func(g uint64) {
			for i := 0; i < e.WAL.NumWriters(); i++ {
				e.WAL.Writer(i).RaiseGSN(g)
			}
		},
	}
}

// BackupCrash runs one archiver crash-recovery cycle for site (one of
// fault.BackupSites()). dir, archiveDir, and restoreDir must be three
// fresh directories. The contract verified:
//
//   - the crash never damages the primary (its state still satisfies the
//     workload model afterwards),
//   - a restarted archiver resyncs (truncating any torn segment tail),
//     catches up, and passes Verify,
//   - a restore from the archive reproduces the primary's recovered state
//     exactly — same rows, versions, payloads, and row IDs.
func BackupCrash(dir, archiveDir, restoreDir string, seed int64, site string) error {
	const workers = 4
	fault.Reset()
	defer fault.Reset()

	e, err := openEngine(dir, workers+1, 256<<20)
	if err != nil {
		return err
	}
	a, err := backup.OpenArchiver(filepath.Join(dir, "wal"), archiveDir, 0)
	if err != nil {
		return err
	}
	e.SetWALArchiver(a)

	cfg := Config{Seed: seed, IDsPerWorker: 64}
	if cfg.IDsPerWorker <= 0 {
		cfg.IDsPerWorker = 64
	}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(i, cfg)
	}

	// Phase 1: build state, archive it, seal an epoch with a checkpoint,
	// and take a first (complete) base backup the restore can fall back on
	// when the crashing site leaves a later base incomplete.
	runWorkload(e, ws, 150)
	if _, err := a.Archive(); err != nil {
		return fmt.Errorf("backupcrash: warm archive: %w", err)
	}
	if err := e.Checkpoint(); err != nil {
		return fmt.Errorf("backupcrash: warm checkpoint: %w", err)
	}
	if _, _, err := a.BaseBackup(baseSource(e, dir)); err != nil {
		return fmt.Errorf("backupcrash: warm base backup: %w", err)
	}

	// Phase 2: produce unarchived log bytes, then crash the archiver.
	runWorkload(e, ws, 150)
	for _, w := range ws {
		if w.err != nil {
			return w.err
		}
	}
	spec := "panic"
	if site == fault.BackupTornSegment {
		spec = "torn(5)"
	}
	if err := fault.Enable(site, spec); err != nil {
		return err
	}
	var crashed bool
	switch site {
	case fault.BackupPreLabel:
		crashed, _ = crashAt(func() error {
			_, _, err := a.BaseBackup(baseSource(e, dir))
			return err
		})
	case fault.CheckpointPreTruncate, fault.CheckpointPreRemove:
		crashed, _ = crashAt(e.Checkpoint)
	default:
		crashed, _ = crashAt(func() error {
			_, err := a.Archive()
			return err
		})
	}
	if !crashed {
		return fmt.Errorf("backupcrash: site %s never fired", site)
	}
	fault.Reset()
	// Abandon e and a without Close — the crash left them mid-flight.

	// Restart: recover the primary, resync the archiver, catch up, and
	// take a fresh base backup. Everything must verify.
	e2, err := openEngine(dir, workers+1, 256<<20)
	if err != nil {
		return err
	}
	defer e2.Close()
	if _, err := e2.Recover(); err != nil {
		return fmt.Errorf("backupcrash: recover: %w", err)
	}
	a2, err := backup.OpenArchiver(filepath.Join(dir, "wal"), archiveDir, 0)
	if err != nil {
		return fmt.Errorf("backupcrash: archiver resync: %w", err)
	}
	e2.SetWALArchiver(a2)
	if _, err := a2.Archive(); err != nil {
		return fmt.Errorf("backupcrash: catch-up archive: %w", err)
	}
	if _, _, err := a2.BaseBackup(baseSource(e2, dir)); err != nil {
		return fmt.Errorf("backupcrash: post-crash base backup: %w", err)
	}
	if _, err := backup.Verify(archiveDir); err != nil {
		return fmt.Errorf("backupcrash: verify: %w", err)
	}
	if err := commitsOnce(archiveDir); err != nil {
		return fmt.Errorf("backupcrash: %w", err)
	}

	// The primary's own recovered state must still satisfy the model.
	got2, err := readAll(e2, workers)
	if err != nil {
		return err
	}
	if err := checkState(ws, got2); err != nil {
		return fmt.Errorf("backupcrash: primary after crash: %w", err)
	}

	// Restore into a fresh directory and compare against the primary.
	if _, err := backup.Restore(archiveDir, restoreDir, 0); err != nil {
		return fmt.Errorf("backupcrash: restore: %w", err)
	}
	e3, err := openEngine(restoreDir, workers+1, 256<<20)
	if err != nil {
		return err
	}
	defer e3.Close()
	if _, err := e3.Recover(); err != nil {
		return fmt.Errorf("backupcrash: restored recover: %w", err)
	}
	got3, err := readAll(e3, workers)
	if err != nil {
		return err
	}
	if err := checkIndexes(e3, workers, got3); err != nil {
		return fmt.Errorf("backupcrash: restored indexes: %w", err)
	}
	if len(got3) != len(got2) {
		return fmt.Errorf("backupcrash: restored %d rows, primary has %d", len(got3), len(got2))
	}
	for id, p := range got2 {
		r, ok := got3[id]
		if !ok {
			return fmt.Errorf("backupcrash: restored db missing id %d (ver %d)", id, p.ver)
		}
		if r.ver != p.ver || r.pad != p.pad || r.rid != p.rid {
			return fmt.Errorf("backupcrash: id %d diverged: restored (rid=%d ver=%d) primary (rid=%d ver=%d)",
				id, r.rid, r.ver, p.rid, p.ver)
		}
	}
	return nil
}

// commitsOnce checks that the archive holds no transaction's commit record
// twice: a round that read a sealed file again would archive it anew.
func commitsOnce(archiveDir string) error {
	m, err := backup.LoadManifest(archiveDir)
	if err != nil {
		return err
	}
	seen := make(map[uint64]bool)
	var dup uint64
	for i := range m.Segments {
		if err := backup.ScanSegment(archiveDir, &m.Segments[i], 0, func(r wal.Record, _ []byte) {
			if r.Type == wal.RecCommit {
				if seen[r.XID] {
					dup = r.XID
				}
				seen[r.XID] = true
			}
		}); err != nil {
			return err
		}
	}
	if dup != 0 {
		return fmt.Errorf("the archive holds the commit of transaction %d twice", dup)
	}
	return nil
}

// TPCCBackupRestore runs TPC-C with continuous archiving, takes an online
// base backup while terminals are committing, crashes the primary at a
// WAL failpoint mid-run, then recovers it, lets the archive catch up, and
// restores into restoreDir. Both the recovered primary and the restored
// copy must pass the TPC-C consistency conditions, and their table
// contents must agree exactly.
func TPCCBackupRestore(dir, archiveDir, restoreDir string, seed int64, site string, after int) error {
	fault.Reset()
	defer fault.Reset()
	const terminals = 4
	open := func(d string) (*core.Engine, *EngineBackend, error) {
		e, err := core.Open(core.Config{
			Dir:         d,
			Slots:       terminals + 1,
			WALSync:     true,
			LockTimeout: time.Second,
		})
		if err != nil {
			return nil, nil, err
		}
		b := NewEngineBackend(e, terminals)
		if err := tpcc.Declare(b); err != nil {
			return nil, nil, err
		}
		return e, b, nil
	}

	e, b, err := open(dir)
	if err != nil {
		return err
	}
	a, err := backup.OpenArchiver(filepath.Join(dir, "wal"), archiveDir, 0)
	if err != nil {
		return err
	}
	e.SetWALArchiver(a)
	s := tpcc.Small(2)
	if err := tpcc.LoadSeeded(b, s, 200, seed); err != nil {
		return err
	}
	if _, err := a.Archive(); err != nil {
		return err
	}
	if err := e.Checkpoint(); err != nil {
		return err
	}

	// Run the benchmark with a WAL crash armed; while it runs, the main
	// goroutine pumps the archiver and takes one online base backup under
	// live traffic. Both pump and backup can themselves trip the armed WAL
	// site (the base backup flushes the WAL), so they run under crashAt.
	if err := fault.Enable(site, fmt.Sprintf("panic@%d", after)); err != nil {
		return err
	}
	runDone := make(chan struct{})
	var res tpcc.Result
	go func() {
		defer close(runDone)
		res = tpcc.Run(b, tpcc.DriverConfig{Scale: s, Terminals: terminals, Transactions: 3000, Seed: seed})
	}()
	var baseTaken, pumpCrashed bool
	var baseErr error
pump:
	for i := 0; ; i++ {
		select {
		case <-runDone:
			break pump
		case <-time.After(time.Millisecond):
		}
		crashed, _ := crashAt(func() error { _, err := a.Archive(); return err })
		if crashed {
			pumpCrashed = true
			break
		}
		if i == 5 && !baseTaken {
			crashed, berr := crashAt(func() error {
				_, _, err := a.BaseBackup(baseSource(e, dir))
				return err
			})
			if crashed {
				pumpCrashed = true
				break
			}
			baseTaken, baseErr = true, berr
		}
	}
	<-runDone
	if !b.Crashed() && !pumpCrashed {
		return fmt.Errorf("backupcrash: tpcc run never crashed at %s (completed %d txns)", site, res.Total())
	}
	if baseTaken && baseErr != nil {
		return fmt.Errorf("backupcrash: online base backup: %w", baseErr)
	}
	fault.Reset()
	// Abandon the crashed engine and archiver.

	// Recover the primary, then bring the archive up to the recovered
	// horizon before any comparison.
	e2, b2, err := open(dir)
	if err != nil {
		return err
	}
	defer e2.Close()
	if _, err := e2.Recover(); err != nil {
		return fmt.Errorf("backupcrash: tpcc recover: %w", err)
	}
	a2, err := backup.OpenArchiver(filepath.Join(dir, "wal"), archiveDir, 0)
	if err != nil {
		return fmt.Errorf("backupcrash: archiver resync: %w", err)
	}
	e2.SetWALArchiver(a2)
	if _, err := a2.Archive(); err != nil {
		return fmt.Errorf("backupcrash: catch-up archive: %w", err)
	}
	if _, err := backup.Verify(archiveDir); err != nil {
		return fmt.Errorf("backupcrash: verify: %w", err)
	}
	if err := tpcc.CheckConsistency(b2, s); err != nil {
		return fmt.Errorf("backupcrash: primary consistency: %w", err)
	}

	if _, err := backup.Restore(archiveDir, restoreDir, 0); err != nil {
		return fmt.Errorf("backupcrash: restore: %w", err)
	}
	e3, b3, err := open(restoreDir)
	if err != nil {
		return err
	}
	defer e3.Close()
	if _, err := e3.Recover(); err != nil {
		return fmt.Errorf("backupcrash: restored recover: %w", err)
	}
	if err := tpcc.CheckConsistency(b3, s); err != nil {
		return fmt.Errorf("backupcrash: restored consistency: %w", err)
	}
	prim, err := countRows(e2, terminals)
	if err != nil {
		return err
	}
	rest, err := countRows(e3, terminals)
	if err != nil {
		return err
	}
	for name, n := range prim {
		if rest[name] != n {
			return fmt.Errorf("backupcrash: table %s: restored %d rows, primary has %d", name, rest[name], n)
		}
	}
	return nil
}

// countRows scans every table on the spare slot and returns name → rows.
func countRows(e *core.Engine, spareSlot int) (map[string]int, error) {
	tx := e.Begin(spareSlot, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit() // read-only
	out := make(map[string]int)
	for _, t := range e.Tables() {
		n := 0
		if err := tx.ScanTable(t.Name, func(rel.RowID, rel.Row) bool { n++; return true }); err != nil {
			return nil, err
		}
		out[t.Name] = n
	}
	return out, nil
}
