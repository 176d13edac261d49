// Package backup implements continuous WAL archiving, online base
// backups, and point-in-time restore for PhoebeDB.
//
// The archive directory is the durability root an operator replicates to
// cheap storage:
//
//	<archive>/MANIFEST            checksummed index of everything below
//	<archive>/segments/seg-E-0000.wal archived log bytes of epoch E
//	<archive>/base/<seq>/         online base backups (checkpoint image,
//	                              frozen-block file, cold manifest,
//	                              backup_label)
//
// Archiving is continuous: the archiver follows the live log, a row of
// files each named by the checkpoint horizon that opened it, and copies
// whole checksum-valid records into the current epoch's segment; one epoch
// holds one log file. A checkpoint rotates the log to its next file, Seal
// reads the old one to its end and seals its epoch, and only then does the
// checkpoint remove the old file — archive-before-remove is the ordering
// invariant that makes history recoverable after the live log is gone.
//
// Restore materializes an ordinary database directory from the archive:
// the newest complete base backup's files plus a log file rebuilt from the
// segment chain, optionally cut at a target GSN (PITR). The
// engine's normal Recover path then replays it — restore introduces no
// second recovery code path, and the catalog travels in the image and the
// log like everything else, so a PITR target keeps exactly the tables
// created at or before it.
package backup

import (
	"errors"
	"fmt"

	"phoebedb/internal/durable"
)

// Both files are durable frames (internal/durable) whose decoders reject
// trailing bytes and out-of-range field values, so the codecs are
// canonical: any accepted input re-encodes to exactly itself (fuzzed
// property).
const (
	manifestMagic   uint32 = 0x50424D31 // "PBM1"
	labelMagic      uint32 = 0x50424C31 // "PBL1"
	manifestVersion uint32 = 1
	labelVersion    uint32 = 1
)

// Segment is one epoch's run of archived log bytes. Length/CRC cover the
// acknowledged prefix of the segment file: bytes beyond Length are an
// unacknowledged torn tail (a crash between the segment append and the
// manifest rewrite) and are discarded when the archiver reopens.
type Segment struct {
	Epoch  uint32
	Sealed bool
	Length uint64
	CRC    uint32 // crc32(IEEE) of the first Length bytes
	// FirstGSN is the first archived record's GSN (0 while empty);
	// LastGSN is the highest GSN archived into the segment.
	FirstGSN uint64
	LastGSN  uint64
}

// Name returns the segment's file name under <archive>/segments. The
// -0000 suffix is the per-group format's group field, which is always 0.
func (s *Segment) Name() string {
	return fmt.Sprintf("seg-%08d-0000.wal", s.Epoch)
}

// Manifest is the archive's checksummed index, rewritten atomically after
// every archiving round. Segment bytes become part of the archive only
// once the manifest covers them — the manifest advances strictly after the
// segment bytes are fsynced, so the covered prefix is always durable,
// whole records.
type Manifest struct {
	// ContinuousFrom is the GSN from which the archive is gap-free: a base
	// backup whose checkpoint horizon is at or above it can be restored.
	// Zero means the archive holds the database's entire history.
	ContinuousFrom uint64
	// SealGSN is the GSN horizon of the newest sealed epoch (the
	// checkpoint GSN that closed it). It names the log file the current
	// epoch reads: the newest at or below it (wal.Tailer). In a file named
	// below it (the one log file of an earlier release), records at or
	// below it are sealed history the archiver skips.
	SealGSN uint64
	// Epoch is the current (unsealed) epoch number.
	Epoch uint32
	// NextBase is the next base backup sequence number.
	NextBase uint32
	// SrcOff[0] is how many bytes of that log file have been consumed,
	// skipped sealed history included; a fresh archive has none yet.
	SrcOff []uint64
	// Segments holds every archived segment in epoch order: the archived
	// stream is their concatenation.
	Segments []Segment
}

// segmentWire is the encoded size of one Segment, its group field (0)
// included.
const segmentWire = 4 + 4 + 1 + 8 + 4 + 8 + 8

// errPerGroup refuses a manifest of the per-group format: an archive written
// when the log had one file per commit group.
var errPerGroup = errors.New("backup: manifest is in the per-group format (one log file per commit group); this release archives one log")

// EncodeManifest renders the manifest in its canonical binary form.
func EncodeManifest(m *Manifest) []byte {
	return durable.Encode(manifestMagic, manifestVersion, func(w *durable.Writer) {
		w.U64(m.ContinuousFrom)
		w.U64(m.SealGSN)
		w.U32(m.Epoch)
		w.U32(m.NextBase)
		w.U32(uint32(len(m.SrcOff)))
		for _, off := range m.SrcOff {
			w.U64(off)
		}
		w.U32(uint32(len(m.Segments)))
		for _, s := range m.Segments {
			w.U32(0) // group
			w.U32(s.Epoch)
			w.Bool(s.Sealed)
			w.U64(s.Length)
			w.U32(s.CRC)
			w.U64(s.FirstGSN)
			w.U64(s.LastGSN)
		}
	})
}

// DecodeManifest parses and validates a manifest file image.
func DecodeManifest(data []byte) (*Manifest, error) {
	r, err := durable.Open(data, "backup: manifest", manifestMagic, manifestVersion)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		ContinuousFrom: r.U64(),
		SealGSN:        r.U64(),
		Epoch:          r.U32(),
		NextBase:       r.U32(),
	}
	for i, n := 0, r.Count(8); i < n; i++ {
		m.SrcOff = append(m.SrcOff, r.U64())
	}
	perGroup := len(m.SrcOff) > 1
	for i, n := 0, r.Count(segmentWire); i < n; i++ {
		if r.U32() != 0 { // group
			perGroup = true
		}
		m.Segments = append(m.Segments, Segment{
			Epoch:    r.U32(),
			Sealed:   r.Bool(),
			Length:   r.U64(),
			CRC:      r.U32(),
			FirstGSN: r.U64(),
			LastGSN:  r.U64(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if perGroup {
		return nil, errPerGroup
	}
	return m, nil
}

// LabelFile records one file copied into a base backup, with the size and
// checksum it had at copy time — restore and verify recompute both.
type LabelFile struct {
	Name string
	Size uint64
	CRC  uint32
}

// Label is the backup_label written LAST into a base backup directory: a
// base backup without a label (a crash mid-copy) is incomplete and is
// ignored by verify and restore.
type Label struct {
	// CheckpointGSN is the GSN horizon of the checkpoint image included in
	// the backup (0 when the database had never checkpointed). Restore
	// refuses PITR targets below it — the image already contains that
	// history in merged form.
	CheckpointGSN uint64
	// HorizonGSN is the backup horizon: every transaction acknowledged
	// before the base backup began has its commit record at or below it,
	// so restoring to HorizonGSN reproduces at least everything the
	// application had been told was durable.
	HorizonGSN uint64
	// Files lists the copied data files.
	Files []LabelFile
}

// EncodeLabel renders the label in its canonical binary form.
func EncodeLabel(l *Label) []byte {
	return durable.Encode(labelMagic, labelVersion, func(w *durable.Writer) {
		w.U64(l.CheckpointGSN)
		w.U64(l.HorizonGSN)
		w.U32(uint32(len(l.Files)))
		for _, f := range l.Files {
			w.Bytes([]byte(f.Name))
			w.U64(f.Size)
			w.U32(f.CRC)
		}
	})
}

// DecodeLabel parses and validates a backup_label image.
func DecodeLabel(data []byte) (*Label, error) {
	r, err := durable.Open(data, "backup: label", labelMagic, labelVersion)
	if err != nil {
		return nil, err
	}
	l := &Label{CheckpointGSN: r.U64(), HorizonGSN: r.U64()}
	for i, n := 0, r.Count(4+8+4); i < n; i++ {
		l.Files = append(l.Files, LabelFile{
			Name: string(r.Bytes()),
			Size: r.U64(),
			CRC:  r.U32(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return l, nil
}
