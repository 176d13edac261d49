// Package replica implements primary-standby high availability — the
// paper's future-work item 2 — by WAL shipping: a standby continuously
// tails the primary's WAL files and applies committed transactions to
// its own engine, which serves consistent read-only queries and can be
// promoted when the primary dies.
//
// Mechanics: each polling round reads the log's new records once through a
// wal.Tailer (the position, a log file and an offset in it, is remembered;
// a torn record at the tail is retried next round; a file a checkpoint
// removed before the standby finished it is reported) and hands them to
// the engine's redo applier (core.Redo), the same one crash recovery uses: catalog records (CREATE TABLE, CREATE INDEX) apply
// in GSN order, then the committed transactions in commit-timestamp order,
// keeping every index current. The standby owns only the reading.
//
// Records apply below the MVCC layer (the standby's own transaction
// machinery is idle), so reads on the standby see a transaction-consistent
// prefix of the primary's history: a transaction's records are applied
// only after its commit record is durable on the primary. The standby needs
// no schema of its own.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/wal"
)

// ErrLostPosition reports that a primary checkpoint removed the log file
// the standby was shipping from before the standby read it to its end.
// Without a WAL archive the removed records exist only inside the
// primary's checkpoint image, which the standby cannot apply incrementally
// — it must be re-seeded (or pointed at an archive, which removes
// nothing). It is the tailer's error, so errors.Is matches either name.
var ErrLostPosition = wal.ErrLostPosition

// Standby applies a primary's WAL stream to a local engine.
type Standby struct {
	// Engine is the standby's kernel. It follows the primary's catalog; a
	// table declared on it first must match the primary's definition.
	Engine *core.Engine
	// PrimaryWALDir is the primary's WAL directory (shared filesystem or
	// synchronized copy).
	PrimaryWALDir string
	// ArchiveDir optionally points at the primary's WAL archive (see
	// internal/backup). With an archive the standby survives primary
	// checkpoints: archived bytes are never removed, so instead of
	// tailing the live files it consumes the archived stream and only
	// reads the live file for the not-yet-archived tail. The archive
	// must cover the database's whole history (ContinuousFrom == 0) —
	// otherwise the standby would need to start from a restored base
	// backup, and CatchUp reports ErrLostPosition.
	ArchiveDir string

	mu       sync.Mutex
	tail     *wal.Tailer // the live log's position
	stream   int64       // ArchiveDir only: archived-stream bytes consumed
	redo     *core.Redo  // records read and not yet applied
	applied  int64
	promoted bool
}

// NewStandby creates a standby over an engine; the primary's catalog
// records create its tables and indexes.
func NewStandby(e *core.Engine, primaryWALDir string) *Standby {
	return &Standby{
		Engine:        e,
		PrimaryWALDir: primaryWALDir,
		tail:          wal.NewTailer(primaryWALDir, 0, 0),
		redo:          e.NewRedo(),
	}
}

// Applied returns the number of records applied so far.
func (s *Standby) Applied() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// CatchUp performs one shipping round: it reads the log's new records once
// and applies every commit among them in commit-timestamp order, the
// serialization order of conflicting writes on the primary. If a commit is
// in the round, so is every conflicting predecessor and catalog record it
// needs: they were flushed before its records existed, earlier in the one
// file the round reads front to back. It returns the number of records
// applied this round.
func (s *Standby) CatchUp() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, errors.New("replica: standby already promoted")
	}
	return s.catchUp(false)
}

// catchUp is CatchUp's body; final marks the terminal promote-time round
// (the primary and its archiver are dead, so the live-file tail can be
// scanned past archiver skip points).
func (s *Standby) catchUp(final bool) (int, error) {
	recs, err := s.readNew(final)
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		s.redo.Add(r)
	}
	if len(recs) > 0 {
		if err := fault.Eval(fault.ReplicaApply); err != nil {
			return 0, fmt.Errorf("replica: apply: %w", err)
		}
	}
	n, err := s.redo.Apply()
	s.applied += int64(n)
	if err != nil {
		return n, fmt.Errorf("replica: %w", err)
	}
	return n, nil
}

// readNew reads complete records beyond the position.
func (s *Standby) readNew(final bool) ([]wal.Record, error) {
	if s.ArchiveDir != "" {
		recs, err := s.readNewArchived(final)
		if errors.Is(err, wal.ErrLostPosition) {
			// A checkpoint can seal the file the manifest named and remove
			// it between the manifest read and the file read: the next
			// manifest names the file that follows.
			recs, err = s.readNewArchived(final)
		}
		return recs, err
	}
	if err := s.tail.Fetch(); err != nil {
		return nil, fmt.Errorf("replica: re-seed the standby or configure a WAL archive: %w", err)
	}
	var out []wal.Record
	for next := true; next; {
		next = s.tail.Scan(func(r wal.Record, _ []byte) bool {
			out = append(out, r)
			return true
		})
	}
	return out, nil
}

// readNewArchived ships from the WAL archive instead of the live files.
// The archived stream (the segments concatenated in epoch order) is
// append-only — checkpoints seal epochs but never remove archived bytes —
// so a single stream offset survives any number of primary checkpoints.
// The live log supplies only the not-yet-archived tail: the file the
// manifest's SealGSN names, from the archiver's SrcOff plus what this
// standby has read past the archived stream. It changes nothing of the
// standby's state when it fails.
func (s *Standby) readNewArchived(final bool) ([]wal.Record, error) {
	m, err := backup.LoadManifest(s.ArchiveDir)
	if err != nil {
		return nil, fmt.Errorf("replica: archive manifest: %w", err)
	}
	if m.ContinuousFrom != 0 {
		return nil, fmt.Errorf("%w (archive history begins at GSN %d; start from a restored base backup)",
			ErrLostPosition, m.ContinuousFrom)
	}
	o := s.stream
	var out []wal.Record
	var archived int64
	for _, seg := range m.Segments {
		end := archived + int64(seg.Length)
		if o < end {
			// o - archived is a record boundary: o only advances whole records.
			if err := backup.ScanSegment(s.ArchiveDir, &seg, int(o-archived), func(r wal.Record, _ []byte) {
				out = append(out, r)
			}); err != nil {
				return nil, err
			}
			o = end
		}
		archived = end
	}
	out, n, err := s.readLive(out, m, o-archived, final)
	if err != nil {
		return nil, err
	}
	s.stream = o + n
	return out, nil
}

// readLive appends to out the records of the live log past the archive,
// and returns the bytes they take: the file the manifest names, from SrcOff
// plus ahead, the stream bytes this standby has read past the archived
// prefix. In a file named below SealGSN, records at or below it are sealed
// history the archiver skips too: a round stops at them and lets the
// archiver's SrcOff absorb them. At promote time (final) nothing will be
// archived again, so the round reads on past them, and into every later
// file: the filter alone is the dedup.
func (s *Standby) readLive(out []wal.Record, m *backup.Manifest, ahead int64, final bool) ([]wal.Record, int64, error) {
	var srcOff int64
	if len(m.SrcOff) > 0 {
		srcOff = int64(m.SrcOff[0])
	}
	s.tail.Seek(m.SealGSN, srcOff+ahead)
	if err := s.tail.Fetch(); err != nil {
		return nil, 0, err
	}
	file, _ := s.tail.Position()
	var n int64
	for next := true; next; next = next && final {
		stale := file < m.SealGSN
		next = s.tail.Scan(func(r wal.Record, raw []byte) bool {
			if stale && r.GSN <= m.SealGSN {
				return final
			}
			out = append(out, r)
			n += int64(len(raw))
			return true
		})
		file, _ = s.tail.Position()
	}
	return out, n, nil
}

// Run polls until stop closes, applying new log continuously.
func (s *Standby) Run(stop <-chan struct{}, interval time.Duration) error {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-t.C:
			if _, err := s.CatchUp(); err != nil {
				return err
			}
		}
	}
}

// Promote finishes replication and makes the standby writable: it applies
// any remaining log, fast-forwards the standby's WAL GSN clocks past the
// archive, marks the standby promoted, and checkpoints. After promotion the
// engine serves normal transactions as the new primary and restarts from
// its own directory. It reads the primary's files but never writes them.
func (s *Standby) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return errors.New("replica: standby already promoted")
	}
	// Terminal drain: the primary is dead, so this is the last chance to
	// apply committed transactions. What the applier still buffers has no
	// commit, and the primary's own crash recovery would drop it too; the
	// clocks are past it all the same.
	if _, err := s.catchUp(true); err != nil {
		return err
	}
	s.promoted = true
	s.redo = nil
	if s.ArchiveDir != "" {
		// Archived history can reach past the live files (a checkpoint
		// removes the old ones); the promoted timeline must sort above it
		// too.
		if m, merr := backup.LoadManifest(s.ArchiveDir); merr == nil {
			maxGSN := m.SealGSN
			for _, seg := range m.Segments {
				maxGSN = max(maxGSN, seg.LastGSN)
			}
			for i := 0; i < s.Engine.WAL.NumWriters(); i++ {
				s.Engine.WAL.Writer(i).RaiseGSN(maxGSN)
			}
		}
	}
	// Applying logged nothing to the standby's own WAL, so nothing recovery
	// reads holds the shipped catalog and rows yet. A checkpoint makes them
	// the new timeline's starting point, so the promoted engine can restart
	// from its own directory.
	return s.Engine.Checkpoint()
}
