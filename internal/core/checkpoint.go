package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"phoebedb/internal/fault"
	"phoebedb/internal/frozen"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
)

// Checkpointing bounds recovery work: a checkpoint captures every table's
// hot/cold pages and frozen-block directory plus the clock and GSN
// horizons, then truncates the per-slot WAL files. Recovery loads the
// newest checkpoint and replays only the log written after it. This
// extends the paper's recovery story (which replays the full log; the
// paper lists durability infrastructure under future work).
//
// The checkpoint is quiescent: it requires no active transactions, making
// it suitable for maintenance windows. Fuzzy checkpointing concurrent with
// transactions would additionally need undo information in the checkpoint
// image and is left out, as the paper's "Non-Force, Steal" recovery
// (§8) already covers the steady-state path.

const (
	checkpointMagic   uint32 = 0x50434B31 // "PCK1"
	checkpointVersion uint32 = 2
)

// ErrActiveTransactions reports a checkpoint attempt while transactions
// are running.
var ErrActiveTransactions = fmt.Errorf("core: checkpoint requires a quiesced engine")

func (e *Engine) checkpointPath() string {
	return filepath.Join(e.cfg.Dir, "checkpoint.db")
}

func (e *Engine) coldManifestPath(epoch uint64) string {
	return filepath.Join(e.cfg.Dir, frozen.ManifestFileName(epoch))
}

// writeColdManifest durably writes one manifest epoch file (tmp, fsync,
// rename). The frozen.manifestSwap failpoint guards the rename: a crash
// before or during it leaves at worst a stray epoch file that no
// checkpoint references.
func (e *Engine) writeColdManifest(epoch uint64, data []byte) error {
	path := e.coldManifestPath(epoch)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.IO.DataWrite.Add(int64(len(data)))
	if err := fault.Eval(fault.FrozenManifestSwap); err != nil {
		return fmt.Errorf("core: cold manifest swap: %w", err)
	}
	return os.Rename(tmp, path)
}

// gcColdManifests removes superseded manifest epochs, keeping the current
// one and its predecessor (a base backup that read checkpoint.db just
// before a checkpoint may still be copying the previous epoch).
func (e *Engine) gcColdManifests(current uint64) {
	ents, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		var epoch uint64
		if _, err := fmt.Sscanf(ent.Name(), "cold.manifest.%d", &epoch); err != nil {
			continue
		}
		if epoch+1 < current {
			os.Remove(filepath.Join(e.cfg.Dir, ent.Name()))
		}
	}
}

// cpWriter streams a checkpoint image to its file, keeping the running
// checksum and byte count: the image is never held in memory, so a
// checkpoint's footprint is one table's page images, not the database's.
// bufio keeps the first write error and returns it from Flush.
type cpWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	n   int64
}

func newCPWriter(f io.Writer) *cpWriter {
	return &cpWriter{w: bufio.NewWriterSize(f, 1<<20), crc: crc32.NewIEEE()}
}

func (w *cpWriter) write(b []byte) {
	w.crc.Write(b)
	w.w.Write(b)
	w.n += int64(len(b))
}

func (w *cpWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.write(b[:])
}

func (w *cpWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.write(b[:])
}

func (w *cpWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.write(b)
}

type cpReader struct {
	buf []byte
	off int
	err error
}

func (r *cpReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.err = fmt.Errorf("core: truncated checkpoint")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *cpReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.err = fmt.Errorf("core: truncated checkpoint")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *cpReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("core: truncated checkpoint")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Checkpoint captures the full database state and truncates the WAL. The
// engine must be quiesced (no active transactions); run a GC round first
// so UNDO history is drained and tombstones are erased.
func (e *Engine) Checkpoint() error {
	if n := e.Mgr.ActiveCount(); n != 0 {
		return fmt.Errorf("%w: %d active transactions", ErrActiveTransactions, n)
	}
	e.CollectGarbage()
	if err := e.WAL.FlushAll(); err != nil {
		return err
	}
	if err := fault.Eval(fault.CheckpointPreSave); err != nil {
		return err
	}

	// The checkpoint GSN horizon: everything at or below it is captured in
	// the image. Fast-forward every writer past it NOW, before the image
	// becomes durable, so each post-checkpoint record sorts strictly above
	// the horizon — that is what lets recovery drop still-on-disk WAL
	// records the checkpoint already covers when a crash lands between the
	// checkpoint rename and the WAL truncation. (Without the fast-forward,
	// a writer whose private GSN clock lagged the horizon could log
	// post-checkpoint records below it.)
	cpGSN := e.WAL.MaxGSN()
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).AdvanceGSN(cpGSN)
	}

	// Cold-tier durability rides the checkpoint: segments already live in
	// the append-only block file, so syncing it and then committing a
	// manifest naming the current segment set makes the cold directory
	// crash-consistent. The manifest is an immutable epoch-named file; the
	// checkpoint image records (epoch, crc) and the image's atomic rename
	// below is the manifest swap commit point — a crash anywhere before it
	// leaves the previous checkpoint and its manifest epoch authoritative.
	if err := e.bf.Sync(); err != nil {
		return err
	}
	tables := e.Tables()
	manifest := &frozen.Manifest{Epoch: e.coldEpoch.Load() + 1}
	for _, t := range tables {
		manifest.Tables = append(manifest.Tables, frozen.TableManifest{
			Table:    t.Name,
			Segments: t.Frozen.Export(),
		})
	}
	manifestBytes := frozen.EncodeManifest(manifest)
	manifestCRC := crc32.ChecksumIEEE(manifestBytes)
	if err := e.writeColdManifest(manifest.Epoch, manifestBytes); err != nil {
		return err
	}

	// Durable write: temp file, fsync, atomic rename, then log truncation.
	// A failed attempt leaves no temp file behind.
	tmp := e.checkpointPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := newCPWriter(f)
	w.u32(checkpointMagic)
	w.u32(checkpointVersion)
	w.u64(cpGSN)
	w.u64(e.Mgr.Clock.Now())
	w.u64(manifest.Epoch)
	w.u32(manifestCRC)
	w.u32(uint32(len(tables)))
	for _, t := range tables {
		w.bytes([]byte(t.Name))
		w.u32(t.ID)
		images, nextRID, maxFrozen, err := t.Store.ExportImages(nil)
		if err != nil {
			return fail(fmt.Errorf("core: checkpoint table %q: %w", t.Name, err))
		}
		w.u64(nextRID)
		w.u64(maxFrozen)
		w.u32(uint32(len(images)))
		for _, im := range images {
			w.u64(uint64(im.FirstRID))
			w.bytes(im.Img)
		}
	}
	w.u32(w.crc.Sum32())
	if err := w.w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	// Checkpoint images go to disk outside the page/block files, but they
	// are data writes all the same — Exp 3/4's write volumes must see them.
	e.IO.DataWrite.Add(w.n)
	if err := os.Rename(tmp, e.checkpointPath()); err != nil {
		return err
	}
	if err := fault.Eval(fault.CheckpointPostSave); err != nil {
		return err
	}
	e.lastCpGSN.Store(cpGSN)
	e.coldEpoch.Store(manifest.Epoch)
	e.stats.Checkpoints.Add(1)
	e.gcColdManifests(manifest.Epoch)
	// Archive ordering: the archiver must copy (and make durable) every
	// remaining WAL byte before truncation destroys it. A seal failure
	// aborts the truncation, not the checkpoint — the image is already
	// durable, recovery drops records at or below cpGSN, and the next
	// checkpoint retries the seal over the same (longer) log.
	if e.archiver != nil {
		if err := e.archiver.Seal(cpGSN); err != nil {
			return fmt.Errorf("core: checkpoint kept WAL (archive seal failed): %w", err)
		}
	}
	if err := fault.Eval(fault.CheckpointPreTruncate); err != nil {
		return err
	}
	return e.WAL.Truncate()
}

// loadColdManifest reads the manifest epoch a checkpoint references,
// verifies it byte-for-byte against the recorded CRC, and rebuilds each
// table's segment directory.
func (e *Engine) loadColdManifest(epoch uint64, wantCRC uint32) error {
	e.coldEpoch.Store(epoch)
	if epoch == 0 {
		return nil
	}
	data, err := os.ReadFile(e.coldManifestPath(epoch))
	if err != nil {
		return fmt.Errorf("core: cold manifest epoch %d: %w", epoch, err)
	}
	if crc := crc32.ChecksumIEEE(data); crc != wantCRC {
		return fmt.Errorf("core: cold manifest epoch %d CRC %#x, checkpoint says %#x", epoch, crc, wantCRC)
	}
	m, err := frozen.DecodeManifest(data)
	if err != nil {
		return err
	}
	if m.Epoch != epoch {
		return fmt.Errorf("core: cold manifest file epoch %d, checkpoint says %d", m.Epoch, epoch)
	}
	for _, tm := range m.Tables {
		if len(tm.Segments) == 0 {
			continue
		}
		t, terr := e.Table(tm.Table)
		if terr != nil {
			return fmt.Errorf("core: cold manifest references undeclared table %q", tm.Table)
		}
		if err := t.Frozen.Import(tm.Segments); err != nil {
			return err
		}
	}
	return nil
}

// ReadColdManifestRefFromImage extracts the cold manifest (epoch, crc)
// reference from an encoded checkpoint image. Base backups use it to copy
// the exact manifest the captured image names.
func ReadColdManifestRefFromImage(data []byte) (epoch uint64, crc uint32, err error) {
	if len(data) < 4 {
		return 0, 0, fmt.Errorf("core: checkpoint too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, 0, fmt.Errorf("core: checkpoint checksum mismatch")
	}
	r := &cpReader{buf: body}
	if r.u32() != checkpointMagic {
		return 0, 0, fmt.Errorf("core: bad checkpoint magic")
	}
	if v := r.u32(); r.err == nil && v != checkpointVersion {
		return 0, 0, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	r.u64() // cpGSN
	r.u64() // clock
	epoch = r.u64()
	crc = r.u32()
	if r.err != nil {
		return 0, 0, r.err
	}
	return epoch, crc, nil
}

// ReadCheckpointGSNFromImage extracts the GSN horizon from an encoded
// checkpoint image without loading it into an engine. Base backups use it
// so the recorded horizon always describes the exact image bytes captured,
// even if the engine checkpointed again mid-copy.
func ReadCheckpointGSNFromImage(data []byte) (uint64, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("core: checkpoint too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, fmt.Errorf("core: checkpoint checksum mismatch")
	}
	r := &cpReader{buf: body}
	if r.u32() != checkpointMagic {
		return 0, fmt.Errorf("core: bad checkpoint magic")
	}
	if v := r.u32(); r.err == nil && v != checkpointVersion {
		return 0, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	g := r.u64()
	if r.err != nil {
		return 0, r.err
	}
	return g, nil
}

// loadCheckpoint restores tables from the newest checkpoint, if one
// exists; returns whether one was loaded and the checkpoint's GSN horizon
// (every change at or below it is contained in the image). Tables must be
// declared (by the same names) before calling.
func (e *Engine) loadCheckpoint() (bool, uint64, error) {
	data, err := os.ReadFile(e.checkpointPath())
	if os.IsNotExist(err) {
		return false, 0, nil
	}
	if err != nil {
		return false, 0, err
	}
	if len(data) < 4 {
		return false, 0, fmt.Errorf("core: checkpoint too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return false, 0, fmt.Errorf("core: checkpoint checksum mismatch")
	}
	r := &cpReader{buf: body}
	if r.u32() != checkpointMagic {
		return false, 0, fmt.Errorf("core: bad checkpoint magic")
	}
	if v := r.u32(); v != checkpointVersion {
		return false, 0, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	maxGSN := r.u64()
	cpTS := r.u64()
	manifestEpoch := r.u64()
	manifestCRC := r.u32()
	numTables := int(r.u32())
	for i := 0; i < numTables && r.err == nil; i++ {
		name := string(r.bytes())
		r.u32() // table id recorded for diagnostics; matching is by name
		t, terr := e.Table(name)
		if terr != nil {
			return false, 0, fmt.Errorf("core: checkpoint references undeclared table %q", name)
		}
		nextRID := r.u64()
		maxFrozen := r.u64()
		numPages := int(r.u32())
		images := make([]table.PageImage, 0, numPages)
		for p := 0; p < numPages && r.err == nil; p++ {
			first := rel.RowID(r.u64())
			img := append([]byte(nil), r.bytes()...)
			images = append(images, table.PageImage{FirstRID: first, Img: img})
		}
		if r.err == nil {
			if err := t.Store.ImportImages(images, nextRID, maxFrozen); err != nil {
				return false, 0, err
			}
		}
	}
	if r.err != nil {
		return false, 0, r.err
	}
	if err := e.loadColdManifest(manifestEpoch, manifestCRC); err != nil {
		return false, 0, err
	}
	e.Mgr.Clock.AdvanceTo(cpTS + 1)
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).AdvanceGSN(maxGSN)
	}
	e.lastCpGSN.Store(maxGSN)
	return true, maxGSN, nil
}
