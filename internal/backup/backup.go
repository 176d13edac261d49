package backup

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"phoebedb/internal/durable"
	"phoebedb/internal/fault"
	"phoebedb/internal/wal"
)

// Archive directory layout.
const (
	ManifestName = "MANIFEST"
	LabelName    = "backup_label"
	segmentsDir  = "segments"
	baseDir      = "base"
)

// Archiver continuously copies the live WAL into an archive directory. One
// archiver owns one archive; all methods are safe for concurrent use, but
// the archiver assumes it is the only process writing the archive.
//
// One archive epoch holds one log file. The manifest's position is the file
// SealGSN names (see wal.Tailer) and SrcOff[0] bytes into it. Per round:
//
//  1. Read whole checksum-valid records from the position (wal.Tailer).
//  2. Append them to the epoch's segment file and fsync it.
//  3. When the tailer moved on to the next file, seal the epoch at that
//     file's horizon and go on in the next epoch.
//  4. Only then rewrite the manifest (atomically) to cover the new bytes.
//
// Step 2-before-4 ordering means the manifest-covered prefix of every
// segment is always durable, whole records; a crash between them leaves a
// torn segment tail that reopen truncates away and re-copies.
type Archiver struct {
	dir string

	mu sync.Mutex
	m  *Manifest
	// tail follows the live WAL from the manifest's position plus whatever
	// the round in progress has consumed.
	tail *wal.Tailer

	// Counters surfaced via the metrics registry.
	rounds        atomic.Int64
	archivedBytes atomic.Int64
	seals         atomic.Int64
	baseBackups   atomic.Int64
	errs          atomic.Int64
	horizonGSN    atomic.Uint64
	lastBaseGSN   atomic.Uint64
}

// OpenArchiver opens (or creates) the archive at dir for the WAL files in
// walDir. startGSN is the engine's current checkpoint horizon: when the
// archive is created fresh against a database that already checkpointed,
// history at or below startGSN lives only in the checkpoint image, so the
// archive records it as its ContinuousFrom bound and starts at the log
// file of that horizon. startGSN is ignored when the archive already
// exists.
func OpenArchiver(walDir, dir string, startGSN uint64) (*Archiver, error) {
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, baseDir), 0o755); err != nil {
		return nil, err
	}
	a := &Archiver{dir: dir}
	m, err := LoadManifest(dir)
	switch {
	case os.IsNotExist(err):
		a.m = &Manifest{ContinuousFrom: startGSN, SealGSN: startGSN}
		if err := a.persistLocked(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		a.m = m
		if err := a.resyncLocked(); err != nil {
			return nil, err
		}
	}
	var off int64
	if len(a.m.SrcOff) > 0 {
		off = int64(a.m.SrcOff[0])
	}
	a.tail = wal.NewTailer(walDir, a.m.SealGSN, off)
	a.refreshHorizonLocked()
	return a, nil
}

// Dir returns the archive root directory.
func (a *Archiver) Dir() string { return a.dir }

// resyncLocked reconciles segment files with the manifest after a restart:
// bytes beyond the covered length are an unacknowledged tail from a crash
// mid-round and are truncated away (the source bytes are still in the live
// WAL — SrcOff only advances with the manifest). A segment *shorter* than
// its covered length is real loss and refuses to open.
func (a *Archiver) resyncLocked() error {
	for i := range a.m.Segments {
		s := &a.m.Segments[i]
		p := SegmentPath(a.dir, s)
		st, err := os.Stat(p)
		if os.IsNotExist(err) {
			if s.Length == 0 {
				continue
			}
			return fmt.Errorf("backup: segment %s missing (%d bytes covered)", s.Name(), s.Length)
		}
		if err != nil {
			return err
		}
		if uint64(st.Size()) < s.Length {
			return fmt.Errorf("backup: segment %s is %d bytes, manifest covers %d",
				s.Name(), st.Size(), s.Length)
		}
		if uint64(st.Size()) > s.Length {
			if err := os.Truncate(p, int64(s.Length)); err != nil {
				return err
			}
		}
	}
	return nil
}

// currentSegLocked returns the current epoch's segment, creating its
// manifest entry on first use.
func (a *Archiver) currentSegLocked() *Segment {
	if n := len(a.m.Segments); n > 0 {
		if s := &a.m.Segments[n-1]; !s.Sealed && s.Epoch == a.m.Epoch {
			return s
		}
	}
	a.m.Segments = append(a.m.Segments, Segment{Epoch: a.m.Epoch})
	return &a.m.Segments[len(a.m.Segments)-1]
}

// persistLocked atomically and durably rewrites the manifest.
func (a *Archiver) persistLocked() error {
	_, err := durable.ReplaceFile(filepath.Join(a.dir, ManifestName), "", durable.Bytes(EncodeManifest(a.m)))
	return err
}

func (a *Archiver) refreshHorizonLocked() {
	var max uint64
	for i := range a.m.Segments {
		if g := a.m.Segments[i].LastGSN; g > max {
			max = g
		}
	}
	if max < a.m.SealGSN {
		max = a.m.SealGSN
	}
	a.horizonGSN.Store(max)
}

// Archive runs one copy round and returns how many bytes it archived. Safe
// to call concurrently with transactions: it only ever consumes whole
// checksum-valid records, which the engine never rewrites in place. A
// failed round is counted in Errors.
func (a *Archiver) Archive() (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n, err := a.archiveLocked()
	if err != nil {
		a.errs.Add(1)
	}
	return n, err
}

func (a *Archiver) archiveLocked() (int64, error) {
	a.rounds.Add(1)
	// A file is removed only after its seal, so a position whose file is
	// gone means the log was checkpointed without this archiver.
	if err := a.tail.Fetch(); err != nil {
		return 0, fmt.Errorf("backup: %w", err)
	}
	var total int64
	sealed := false
	for {
		file, before := a.tail.Position()
		// Only a file named below the seal horizon holds records at or
		// below it (archived already, or in the image): an earlier
		// release's untruncated log, or a checkpoint's before its rotation.
		stale := file < a.m.SealGSN
		var out []byte
		var firstGSN, lastGSN uint64
		next := a.tail.Scan(func(r wal.Record, raw []byte) bool {
			if stale && r.GSN <= a.m.SealGSN {
				return true
			}
			out = append(out, raw...)
			if firstGSN == 0 {
				firstGSN = r.GSN
			}
			lastGSN = max(lastGSN, r.GSN)
			return true
		})
		if len(out) > 0 {
			seg := a.currentSegLocked()
			err := fault.Eval(fault.BackupArchiveCopy)
			if err == nil {
				err = a.appendSegment(seg, out)
			}
			if err != nil {
				// None of this file's batch reached its segment: the next
				// round must read it again.
				a.tail.Seek(file, before)
				return total, err
			}
			seg.CRC = crc32.Update(seg.CRC, crc32.IEEETable, out)
			seg.Length += uint64(len(out))
			if seg.FirstGSN == 0 {
				seg.FirstGSN = firstGSN
			}
			seg.LastGSN = max(seg.LastGSN, lastGSN)
			total += int64(len(out))
		}
		if !next {
			break
		}
		// The file is read to its end: the next one's horizon seals the
		// epoch. An empty epoch gets a segment entry too, so verify can
		// prove the epochs contiguous.
		a.currentSegLocked().Sealed = true
		a.m.SealGSN, _ = a.tail.Position()
		a.m.Epoch++
		a.seals.Add(1)
		sealed = true
	}
	if _, off := a.tail.Position(); sealed || len(a.m.SrcOff) != 1 || a.m.SrcOff[0] != uint64(off) {
		a.m.SrcOff = []uint64{uint64(off)}
		if err := a.persistLocked(); err != nil {
			return total, err
		}
	}
	a.archivedBytes.Add(total)
	a.refreshHorizonLocked()
	return total, nil
}

// appendSegment appends out to the segment file and fsyncs it. The
// manifest still covers only the old length until persistLocked runs, so a
// crash anywhere in here leaves a torn tail that resync discards.
func (a *Archiver) appendSegment(seg *Segment, out []byte) error {
	f, err := os.OpenFile(SegmentPath(a.dir, seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	// Bytes past the covered length are the unacknowledged tail of a
	// crashed round. resync already cut them for segments the manifest
	// lists; a segment whose very first append tore has no entry yet.
	if err := f.Truncate(int64(seg.Length)); err != nil {
		return err
	}
	if cut := fault.TornCut(fault.BackupTornSegment, len(out)); cut > 0 {
		f.Write(out[:len(out)-cut])
		f.Sync()
		fault.Crash(fault.BackupTornSegment)
	}
	if _, err := f.Write(out); err != nil {
		return err
	}
	return f.Sync()
}

// Seal is the checkpoint's archive step, after the log rotated to the file
// of cpGSN and before the older files are removed: one round reads the old
// file to its end and seals its epoch. Seal fails, and the checkpoint keeps
// the old files, if the archive did not reach the file of cpGSN.
func (a *Archiver) Seal(cpGSN uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.archiveLocked(); err != nil {
		return err
	}
	if file, _ := a.tail.Position(); file < cpGSN {
		return fmt.Errorf("backup: seal: the archive is in %s, not at the checkpoint's %s",
			wal.FileName(file), wal.FileName(cpGSN))
	}
	return nil
}

// HorizonGSN returns the highest GSN the archive durably holds.
func (a *Archiver) HorizonGSN() uint64 { return a.horizonGSN.Load() }

// Rounds returns how many archiving rounds have run.
func (a *Archiver) Rounds() int64 { return a.rounds.Load() }

// ArchivedBytes returns the total log bytes copied into the archive.
func (a *Archiver) ArchivedBytes() int64 { return a.archivedBytes.Load() }

// Seals returns how many epochs have been sealed.
func (a *Archiver) Seals() int64 { return a.seals.Load() }

// BaseBackups returns how many base backups completed.
func (a *Archiver) BaseBackups() int64 { return a.baseBackups.Load() }

// LastBaseGSN returns the horizon GSN of the newest completed base backup.
func (a *Archiver) LastBaseGSN() uint64 { return a.lastBaseGSN.Load() }

// Errors returns how many archive rounds (Archive) and lag reads
// (LagBytes) failed.
func (a *Archiver) Errors() int64 { return a.errs.Load() }

// LagBytes returns how many live WAL bytes are not yet archive-covered —
// the data an archive restore would lose if the primary's disk died now.
// It returns -1, and counts the error in Errors, when the log cannot be
// read at the archive's position: a wedged archiver is not caught up.
func (a *Archiver) LagBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	lag, err := a.tail.Lag()
	if err != nil {
		a.errs.Add(1)
		return -1
	}
	return lag
}

// LoadManifest reads and validates the archive's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}

// SegmentPath returns the segment's location under the archive root.
func SegmentPath(dir string, s *Segment) string {
	return filepath.Join(dir, segmentsDir, s.Name())
}

// ScanSegment walks the manifest-covered records of a segment file from
// byte off (a record boundary). Bytes beyond Length are an unacknowledged
// tail from a crashed round and do not count; a file shorter than Length,
// or a covered byte that does not decode, has lost archived history.
func ScanSegment(dir string, s *Segment, off int, fn func(r wal.Record, raw []byte)) error {
	data, err := os.ReadFile(SegmentPath(dir, s))
	if os.IsNotExist(err) && s.Length == 0 {
		return nil
	}
	if err != nil {
		return err
	}
	if uint64(len(data)) < s.Length {
		return fmt.Errorf("backup: segment %s torn: %d bytes on disk, %d covered",
			s.Name(), len(data), s.Length)
	}
	data = data[:s.Length]
	if end := wal.Scan(data, off, func(r wal.Record, raw []byte) bool { fn(r, raw); return true }); end != len(data) {
		return fmt.Errorf("backup: segment %s: torn record at offset %d", s.Name(), end)
	}
	return nil
}
