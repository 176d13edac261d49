package backup

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"phoebedb/internal/core"
	"phoebedb/internal/durable"
	"phoebedb/internal/fault"
	"phoebedb/internal/frozen"
)

// BaseSource describes where a base backup copies from. The two hooks
// bind it to a live engine and are both nil for an offline (stopped
// database) backup.
type BaseSource struct {
	// DataDir is the database directory holding checkpoint.db etc.
	DataDir string
	// MaxGSN returns the WAL's current highest assigned GSN.
	MaxGSN func() uint64
	// RaiseGSN lifts every WAL writer's GSN clock to at least the given
	// value, so records logged after the horizon capture sort above it.
	RaiseGSN func(uint64)
}

// BaseBackup takes an online base backup into <archive>/base/<seq> and
// returns its label and directory. The engine keeps serving transactions
// throughout; only two cheap synchronous steps touch it.
//
// Horizon protocol (live source): capture horizon = MaxGSN, then RaiseGSN
// so every record logged from now on sorts strictly above it, then one
// archive round, which must cover the log's whole records as they were
// when it began: a transaction acknowledged before then is durable, its
// records at or below the horizon. So the copied image plus archived WAL
// up to the horizon reproduce every such transaction — the promise
// HorizonGSN makes in the label. (The horizon may exceed every archived
// GSN: rolled-back and open transactions take GSNs the log never sees.)
//
// The label is written last, atomically: a crash at any earlier point
// leaves a directory without backup_label, which Verify reports as
// incomplete and Restore ignores.
func (a *Archiver) BaseBackup(src BaseSource) (*Label, string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	var horizon uint64
	if src.MaxGSN != nil {
		horizon = src.MaxGSN()
	}
	if src.RaiseGSN != nil {
		src.RaiseGSN(horizon)
	}
	// The round reads every whole record the log holds when it begins.
	if _, err := a.archiveLocked(); err != nil {
		return nil, "", fmt.Errorf("backup: base backup catch-up: %w", err)
	}
	if horizon == 0 {
		// Offline source: after a full catch-up round the archive horizon
		// is the highest GSN the database ever logged.
		horizon = a.horizonGSN.Load()
	}

	seq := a.m.NextBase
	bdir := filepath.Join(a.dir, baseDir, fmt.Sprintf("%06d", seq))
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		return nil, "", err
	}
	// Snapshot the checkpoint image together with the cold manifest it
	// names. A concurrent checkpoint can replace the image and garbage-
	// collect old manifest epochs between our two reads, so on a missing
	// manifest the newer image is recaptured and its manifest read instead
	// (manifest GC keeps the current and previous epoch, so one retry
	// always lands on a live pair).
	var cpData, manData []byte
	var manName string
	var cpGSN uint64
	for attempt := 0; ; attempt++ {
		var err error
		cpData, err = os.ReadFile(filepath.Join(src.DataDir, "checkpoint.db"))
		if os.IsNotExist(err) {
			cpData = nil
			break
		}
		if err != nil {
			return nil, "", err
		}
		// Describe the image bytes actually captured, not whatever the
		// engine's horizon was when we asked — a checkpoint may have
		// replaced the file since.
		hdr, _, err := core.ReadCheckpointHeader(cpData)
		if err != nil {
			return nil, "", fmt.Errorf("backup: base backup: %w", err)
		}
		cpGSN = hdr.GSN
		if hdr.ColdEpoch == 0 {
			manName = ""
			break
		}
		manName = frozen.ManifestFileName(hdr.ColdEpoch)
		manData, err = os.ReadFile(filepath.Join(src.DataDir, manName))
		if err == nil {
			break
		}
		if !os.IsNotExist(err) || attempt > 0 {
			return nil, "", fmt.Errorf("backup: base backup cold manifest: %w", err)
		}
	}

	// The image (which carries the catalog), the block file its cold
	// segments live in, and the cold manifest it names. The live page file
	// is deliberately absent: images carry full page bytes, and everything
	// after the checkpoint is replayed from archived WAL.
	blocks, err := os.ReadFile(filepath.Join(src.DataDir, "data.blocks"))
	if err != nil && !os.IsNotExist(err) {
		return nil, "", err
	}
	var files []LabelFile
	for _, f := range []struct {
		name string
		data []byte
	}{{"checkpoint.db", cpData}, {"data.blocks", blocks}, {manName, manData}} {
		if f.data == nil {
			continue
		}
		if err := durable.WriteFile(filepath.Join(bdir, f.name), f.data); err != nil {
			return nil, "", err
		}
		files = append(files, LabelFile{Name: f.name, Size: uint64(len(f.data)), CRC: crc32.ChecksumIEEE(f.data)})
	}
	if cpGSN < a.m.ContinuousFrom {
		return nil, "", fmt.Errorf("backup: base backup checkpoint horizon %d predates archive history (continuous from %d)",
			cpGSN, a.m.ContinuousFrom)
	}
	if horizon < cpGSN {
		horizon = cpGSN
	}

	if err := fault.Eval(fault.BackupPreLabel); err != nil {
		return nil, "", err
	}
	label := &Label{CheckpointGSN: cpGSN, HorizonGSN: horizon, Files: files}
	if _, err := durable.ReplaceFile(filepath.Join(bdir, LabelName), "", durable.Bytes(EncodeLabel(label))); err != nil {
		return nil, "", err
	}

	a.m.NextBase = seq + 1
	if err := a.persistLocked(); err != nil {
		return nil, "", err
	}
	a.baseBackups.Add(1)
	a.lastBaseGSN.Store(horizon)
	return label, bdir, nil
}

// baseEntry is one directory under <archive>/base.
type baseEntry struct {
	seq   int
	dir   string
	label *Label // nil when incomplete (no valid backup_label)
	err   string
}

// listBases returns the base backup directories in ascending sequence
// order, decoding each label (entries without a valid label are kept, with
// label nil, so callers can report them).
func listBases(archiveDir string) ([]baseEntry, error) {
	root := filepath.Join(archiveDir, baseDir)
	ents, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []baseEntry
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		seq, err := strconv.Atoi(de.Name())
		if err != nil {
			continue
		}
		be := baseEntry{seq: seq, dir: filepath.Join(root, de.Name())}
		data, err := os.ReadFile(filepath.Join(be.dir, LabelName))
		switch {
		case os.IsNotExist(err):
			be.err = "missing backup_label (crash during base backup)"
		case err != nil:
			be.err = err.Error()
		default:
			l, derr := DecodeLabel(data)
			if derr != nil {
				be.err = derr.Error()
			} else {
				be.label = l
			}
		}
		out = append(out, be)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}
