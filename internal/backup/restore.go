package backup

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"phoebedb/internal/core"
	"phoebedb/internal/durable"
	"phoebedb/internal/frozen"
	"phoebedb/internal/wal"
)

// BaseInfo summarizes one base backup for verification reports.
type BaseInfo struct {
	Seq      int
	Dir      string
	Complete bool
	Label    *Label // nil when incomplete
	Problem  string // why the backup is unusable, when it is
}

// VerifyReport summarizes a verified archive.
type VerifyReport struct {
	ContinuousFrom uint64
	HorizonGSN     uint64
	Epochs         uint32 // sealed epochs
	Segments       int
	ArchivedBytes  int64
	Records        int
	Bases          []BaseInfo
}

// Verify checks the whole archive: the manifest's checksum and structure,
// every segment's checksum and record-level parseability against its
// manifest entry, epoch coverage (no sealed epoch may be missing — that is
// a gap), and every base backup's files against its label. Incomplete base
// backups (no label: a crash mid-backup) are reported but are not errors;
// any integrity failure in the manifest, a segment, or a labeled base
// backup is.
func Verify(archiveDir string) (*VerifyReport, error) {
	m, err := LoadManifest(archiveDir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{
		ContinuousFrom: m.ContinuousFrom,
		Epochs:         m.Epoch,
		Segments:       len(m.Segments),
	}
	// The segments' epochs must be a contiguous run ending at the current
	// epoch. A hole in the middle means archived history went missing.
	segs := m.Segments
	for i, s := range segs {
		if i > 0 && s.Epoch != segs[i-1].Epoch+1 {
			return nil, fmt.Errorf("backup: missing epochs %d..%d", segs[i-1].Epoch+1, s.Epoch-1)
		}
		if s.Sealed && s.Epoch >= m.Epoch {
			return nil, fmt.Errorf("backup: epoch %d sealed beyond current epoch %d", s.Epoch, m.Epoch)
		}
		if !s.Sealed && s.Epoch != m.Epoch {
			return nil, fmt.Errorf("backup: epoch %d unsealed but not current", s.Epoch)
		}
	}
	if n := len(segs); n > 0 && segs[n-1].Sealed && segs[n-1].Epoch != m.Epoch-1 {
		return nil, fmt.Errorf("backup: missing epochs %d..%d", segs[n-1].Epoch+1, m.Epoch-1)
	}
	for i := range m.Segments {
		s := &m.Segments[i]
		n, b, err := verifySegment(archiveDir, s)
		if err != nil {
			return nil, err
		}
		rep.Records += n
		rep.ArchivedBytes += b
		if s.LastGSN > rep.HorizonGSN {
			rep.HorizonGSN = s.LastGSN
		}
	}
	if m.SealGSN > rep.HorizonGSN {
		rep.HorizonGSN = m.SealGSN
	}
	bases, err := listBases(archiveDir)
	if err != nil {
		return nil, err
	}
	for _, be := range bases {
		bi := BaseInfo{Seq: be.seq, Dir: be.dir, Label: be.label, Problem: be.err}
		if be.label != nil {
			if err := verifyBaseFiles(be.dir, be.label); err != nil {
				return nil, fmt.Errorf("backup: base %06d: %w", be.seq, err)
			}
			if err := verifyColdTier(be.dir, be.label); err != nil {
				return nil, fmt.Errorf("backup: base %06d: %w", be.seq, err)
			}
			bi.Complete = true
		}
		rep.Bases = append(rep.Bases, bi)
	}
	return rep, nil
}

// verifySegment checks one segment file against its manifest entry and
// returns the record count and covered bytes.
func verifySegment(archiveDir string, s *Segment) (int, int64, error) {
	var first, last uint64
	var crc uint32
	count := 0
	if err := ScanSegment(archiveDir, s, 0, func(r wal.Record, raw []byte) {
		if count == 0 {
			first = r.GSN
		}
		if r.GSN > last {
			last = r.GSN
		}
		count++
		crc = crc32.Update(crc, crc32.IEEETable, raw)
	}); err != nil {
		return 0, 0, err
	}
	// Every covered byte decoded, so the records' checksum is the file's.
	if crc != s.CRC {
		return 0, 0, fmt.Errorf("backup: segment %s checksum mismatch", s.Name())
	}
	if first != s.FirstGSN || last != s.LastGSN {
		return 0, 0, fmt.Errorf("backup: segment %s GSN range [%d,%d] does not match manifest [%d,%d]",
			s.Name(), first, last, s.FirstGSN, s.LastGSN)
	}
	return count, int64(s.Length), nil
}

// verifyBaseFiles checks a labeled base backup's files byte-for-byte
// against the label's sizes and checksums.
func verifyBaseFiles(dir string, l *Label) error {
	for _, f := range l.Files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			return err
		}
		if uint64(len(data)) != f.Size {
			return fmt.Errorf("%s is %d bytes, label records %d", f.Name, len(data), f.Size)
		}
		if got := crc32.ChecksumIEEE(data); got != f.CRC {
			return fmt.Errorf("%s checksum mismatch", f.Name)
		}
	}
	return nil
}

// verifyColdTier cross-checks a base backup's cold-tier capture: the
// checkpoint image must name exactly the cold manifest the backup holds
// (epoch and CRC), and every segment the manifest lists must verify —
// whole-segment checksum, header integrity, per-block decompression,
// row-id ordering, and bloom-filter membership — against the copied block
// file. verifyBaseFiles already proved the bytes match the label; this
// proves the cold tier they describe is internally consistent.
func verifyColdTier(dir string, l *Label) error {
	var manName string
	for _, f := range l.Files {
		if strings.HasPrefix(f.Name, "cold.manifest.") {
			manName = f.Name
		}
	}
	cpData, err := os.ReadFile(filepath.Join(dir, "checkpoint.db"))
	if os.IsNotExist(err) {
		if manName != "" {
			return fmt.Errorf("%s present without a checkpoint image", manName)
		}
		return nil
	}
	if err != nil {
		return err
	}
	hdr, _, err := core.ReadCheckpointHeader(cpData)
	if err != nil {
		return err
	}
	epoch, wantCRC := hdr.ColdEpoch, hdr.ColdCRC
	if epoch == 0 {
		if manName != "" {
			return fmt.Errorf("%s present but the image names no cold manifest", manName)
		}
		return nil
	}
	if want := frozen.ManifestFileName(epoch); manName != want {
		return fmt.Errorf("image names cold manifest %s, backup holds %q", want, manName)
	}
	manData, err := os.ReadFile(filepath.Join(dir, manName))
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(manData); got != wantCRC {
		return fmt.Errorf("%s checksum %#x, image records %#x", manName, got, wantCRC)
	}
	m, err := frozen.DecodeManifest(manData)
	if err != nil {
		return err
	}
	if m.Epoch != epoch {
		return fmt.Errorf("%s carries epoch %d, image names %d", manName, m.Epoch, epoch)
	}
	var blocks []byte
	for _, t := range m.Tables {
		if len(t.Segments) == 0 {
			continue
		}
		if blocks == nil {
			if blocks, err = os.ReadFile(filepath.Join(dir, "data.blocks")); err != nil {
				return err
			}
		}
		for i, s := range t.Segments {
			end := s.Ref.Offset + int64(s.Ref.Len)
			if s.Ref.Offset < 0 || end > int64(len(blocks)) {
				return fmt.Errorf("table %q segment %d overruns the block file", t.Table, i)
			}
			if err := frozen.VerifySegmentBytes(blocks[s.Ref.Offset:end], s); err != nil {
				return fmt.Errorf("table %q segment %d: %w", t.Table, i, err)
			}
		}
	}
	return nil
}

// RestoreReport summarizes a completed restore.
type RestoreReport struct {
	BaseSeq       int // -1 when the archive's full history was replayed with no base
	BaseDir       string
	CheckpointGSN uint64
	HorizonGSN    uint64 // newest base backup's acknowledged-durability horizon
	TargetGSN     uint64 // 0 = everything
	Records       int    // WAL records materialized for replay
	MaxGSN        uint64 // highest GSN materialized
}

// Restore materializes an ordinary database directory at destDir from the
// archive: the newest complete base backup's files, plus one log file,
// named by the base's checkpoint horizon, rebuilt from the segment chain.
// targetGSN optionally cuts the
// replay for point-in-time recovery: only records with GSN <= targetGSN
// are materialized, which — because a transaction's commit record carries
// its highest GSN — keeps exactly the transactions that committed at or
// before the target, each one whole. targetGSN 0 means restore everything
// the archive holds.
//
// The archive is fully verified first; a torn or gap-containing archive
// refuses to restore. destDir must not already contain a database.
func Restore(archiveDir, destDir string, targetGSN uint64) (*RestoreReport, error) {
	if _, err := Verify(archiveDir); err != nil {
		return nil, err
	}
	m, err := LoadManifest(archiveDir)
	if err != nil {
		return nil, err
	}
	bases, err := listBases(archiveDir)
	if err != nil {
		return nil, err
	}
	var base *baseEntry
	for i := len(bases) - 1; i >= 0; i-- {
		if bases[i].label == nil {
			continue
		}
		// PITR may need an older base: the image must predate the target.
		if targetGSN != 0 && bases[i].label.CheckpointGSN > targetGSN {
			continue
		}
		base = &bases[i]
		break
	}
	if base == nil && m.ContinuousFrom != 0 {
		return nil, fmt.Errorf("backup: archive history begins at GSN %d; restore requires a complete base backup%s",
			m.ContinuousFrom, pitrHint(targetGSN))
	}

	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return nil, err
	}
	if ents, err := os.ReadDir(destDir); err != nil {
		return nil, err
	} else if len(ents) != 0 {
		return nil, fmt.Errorf("backup: restore destination %s is not empty", destDir)
	}

	rep := &RestoreReport{BaseSeq: -1, TargetGSN: targetGSN}
	if base != nil {
		rep.BaseSeq = base.seq
		rep.BaseDir = base.dir
		rep.CheckpointGSN = base.label.CheckpointGSN
		rep.HorizonGSN = base.label.HorizonGSN
		if base.label.CheckpointGSN < m.ContinuousFrom {
			return nil, fmt.Errorf("backup: base %06d checkpoint horizon %d predates archive history (continuous from %d)",
				base.seq, base.label.CheckpointGSN, m.ContinuousFrom)
		}
		for _, f := range base.label.Files {
			data, err := os.ReadFile(filepath.Join(base.dir, f.Name))
			if err != nil {
				return nil, err
			}
			if err := durable.WriteFile(filepath.Join(destDir, f.Name), data); err != nil {
				return nil, err
			}
		}
	}

	target := targetGSN
	if target == 0 {
		target = ^uint64(0)
	}
	walDir := filepath.Join(destDir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	var out []byte // recovery sorts the records by GSN
	for _, s := range m.Segments {
		if err := ScanSegment(archiveDir, &s, 0, func(r wal.Record, raw []byte) {
			if r.GSN > rep.CheckpointGSN && r.GSN <= target {
				out = append(out, raw...)
				rep.Records++
				rep.MaxGSN = max(rep.MaxGSN, r.GSN)
			}
		}); err != nil {
			return nil, err
		}
	}
	if err := durable.WriteFile(filepath.Join(walDir, wal.FileName(rep.CheckpointGSN)), out); err != nil {
		return nil, err
	}
	// WriteFile made every file durable in its own directory; the wal/
	// entry itself lives in destDir.
	if err := durable.SyncDir(destDir); err != nil {
		return nil, err
	}
	return rep, nil
}

func pitrHint(targetGSN uint64) string {
	if targetGSN == 0 {
		return ""
	}
	return fmt.Sprintf(" with checkpoint horizon at or below target GSN %d", targetGSN)
}
