package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"phoebedb/internal/durable"
	"phoebedb/internal/fault"
	"phoebedb/internal/frozen"
	"phoebedb/internal/rel"
	"phoebedb/internal/table"
)

// Checkpointing bounds recovery work: a checkpoint captures every table's
// hot/cold pages and frozen-block directory plus the clock and GSN
// horizons, moves the log to a file of its own, and removes the older log
// files. Recovery loads the newest checkpoint and replays only the log
// written after it. This
// extends the paper's recovery story (which replays the full log; the
// paper lists durability infrastructure under future work).
//
// The checkpoint is quiescent: it requires no active transactions, making
// it suitable for maintenance windows. Fuzzy checkpointing concurrent with
// transactions would additionally need undo information in the checkpoint
// image and is left out, as the paper's "Non-Force, Steal" recovery
// (§8) already covers the steady-state path.

// Version 3 records each table's columns and index definitions; version 2
// images (no catalog) still load when the schema is declared first.
const (
	checkpointMagic   uint32 = 0x50434B31 // "PCK1"
	checkpointVersion uint32 = 3
)

// ErrActiveTransactions reports a checkpoint attempt while transactions
// are running.
var ErrActiveTransactions = fmt.Errorf("core: checkpoint requires a quiesced engine")

// ErrNotRecovered reports a checkpoint attempt while the directory's
// history awaits Recover, which the checkpoint would erase.
var ErrNotRecovered = fmt.Errorf("core: checkpoint before Recover of the directory's history")

func (e *Engine) checkpointPath() string {
	return filepath.Join(e.cfg.Dir, "checkpoint.db")
}

func (e *Engine) coldManifestPath(epoch uint64) string {
	return filepath.Join(e.cfg.Dir, frozen.ManifestFileName(epoch))
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

// Checkpoint captures the full database state, rotates the log and removes
// the older log files. The engine must be quiesced (no active
// transactions); run a GC round first so UNDO history is drained and
// tombstones are erased.
func (e *Engine) Checkpoint() error {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	if e.recovering {
		return ErrNotRecovered
	}
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
	// the horizon: recovery drops the records at or below it that a crash
	// before the old log files' removal leaves on disk, and the next log
	// file, named by the horizon, holds only records above it.
	cpGSN := e.WAL.MaxGSN()
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).RaiseGSN(cpGSN)
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
	// The manifest is an immutable epoch-named file. The frozen.manifestSwap
	// failpoint guards its rename: a crash before or during it leaves at
	// worst a stray epoch file that no checkpoint references.
	manifestBytes := frozen.EncodeManifest(manifest)
	manifestCRC := crc32.ChecksumIEEE(manifestBytes)
	n, err := durable.ReplaceFile(e.coldManifestPath(manifest.Epoch), fault.FrozenManifestSwap,
		durable.Bytes(manifestBytes))
	e.IO.DataWrite.Add(n)
	if err != nil {
		return fmt.Errorf("core: cold manifest swap: %w", err)
	}

	// The image streams to its file table by table, so a checkpoint's
	// footprint is one table's page images, not the database's. Only once
	// ReplaceFile returns — image renamed into place and the directory
	// fsynced — may the steps below that depend on it run: manifest GC,
	// the log's rotation, the archive seal, the old log files' removal.
	n, err = durable.ReplaceFile(e.checkpointPath(), "", func(w *durable.Writer) error {
		w.Header(checkpointMagic, checkpointVersion)
		CheckpointHeader{GSN: cpGSN, Clock: e.Mgr.Clock.Now(), ColdEpoch: manifest.Epoch, ColdCRC: manifestCRC}.write(w)
		w.U32(uint32(len(tables)))
		for _, t := range tables {
			x := t.Store.ExportImages()
			ct := checkpointTable{name: t.Name, id: t.ID, nextRID: x.NextRowID, maxFrozen: x.MaxFrozenRID,
				catalog: [][]byte{encodeCatalog(catalogChange{id: t.ID, name: t.Name, cols: t.Schema.Cols})}}
			for _, ix := range t.Indexes() {
				if ix.Live() { // a hidden index is logged when its backfill completes
					ct.catalog = append(ct.catalog, encodeCatalog(indexChange(t, ix)))
				}
			}
			writeCheckpointTableHead(w, ct, x.Len())
			for i := 0; i < x.Len(); i++ {
				im, err := x.Next(nil)
				if err != nil {
					return fmt.Errorf("core: checkpoint table %q: %w", t.Name, err)
				}
				writePageImage(w, im)
			}
		}
		w.Trailer()
		return nil
	})
	// Checkpoint images go to disk outside the page/block files, but they
	// are data writes all the same — Exp 3/4's write volumes must see them.
	e.IO.DataWrite.Add(n)
	if err != nil {
		return err
	}
	if err := fault.Eval(fault.CheckpointPostSave); err != nil {
		return err
	}
	e.coldEpoch.Store(manifest.Epoch)
	e.stats.Checkpoints.Add(1)
	e.gcColdManifests(manifest.Epoch)
	// The log moves to the file of cpGSN, and the archiver seals the old
	// one before it is removed. A failure keeps the old files: recovery
	// drops their records, and the next checkpoint seals and removes them.
	if err := e.WAL.Rotate(cpGSN); err != nil {
		return err
	}
	if err := fault.Eval(fault.CheckpointPreTruncate); err != nil {
		return err
	}
	if e.archiver != nil {
		if err := e.archiver.Seal(cpGSN); err != nil {
			return fmt.Errorf("core: checkpoint kept WAL (archive seal failed): %w", err)
		}
	}
	if err := fault.Eval(fault.CheckpointPreRemove); err != nil {
		return err
	}
	return e.WAL.RemoveOld()
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

// CheckpointHeader is the fixed head of a checkpoint image.
type CheckpointHeader struct {
	// Version is the image's format version (read, not written here).
	Version uint32
	// GSN is the image's horizon: every change at or below it is contained
	// in the image.
	GSN uint64
	// Clock is the transaction clock at checkpoint time.
	Clock uint64
	// ColdEpoch and ColdCRC name the cold manifest file the image commits
	// (epoch 0: none) and the checksum of its bytes.
	ColdEpoch uint64
	ColdCRC   uint32
}

func (h CheckpointHeader) write(w *durable.Writer) {
	w.U64(h.GSN)
	w.U64(h.Clock)
	w.U64(h.ColdEpoch)
	w.U32(h.ColdCRC)
}

// ReadCheckpointHeader verifies an encoded checkpoint image (checksum,
// magic, version 2 or 3) and returns its header and a reader positioned at
// the table section. Base backups use the header so that what they record
// always describes the exact image bytes captured, even if the engine
// checkpointed again mid-copy.
func ReadCheckpointHeader(data []byte) (CheckpointHeader, *durable.Reader, error) {
	h := CheckpointHeader{Version: checkpointVersion}
	if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == 2 {
		h.Version = 2
	}
	r, err := durable.Open(data, "core: checkpoint", checkpointMagic, h.Version)
	if err != nil {
		return CheckpointHeader{}, nil, err
	}
	h.GSN, h.Clock, h.ColdEpoch, h.ColdCRC = r.U64(), r.U64(), r.U64(), r.U32()
	return h, r, r.Err()
}

// checkpointTable is one table's record in the image's table section.
type checkpointTable struct {
	name      string
	id        uint32
	nextRID   uint64
	maxFrozen uint64
	catalog   [][]byte // version 3: the table's and its indexes' catalog records
	images    []table.PageImage
}

// checkpointTableWire and pageImageWire are the smallest encodings of a
// table record and of one page image.
const (
	checkpointTableWire = 4 + 4 + 8 + 8 + 4
	pageImageWire       = 8 + 4
)

func writeCheckpointTable(w *durable.Writer, t checkpointTable) {
	writeCheckpointTableHead(w, t, len(t.images))
	for _, im := range t.images {
		writePageImage(w, im)
	}
}

// writeCheckpointTableHead writes a table record up to its page images,
// of which there will be pages; writePageImage writes each of them.
func writeCheckpointTableHead(w *durable.Writer, t checkpointTable, pages int) {
	w.Bytes([]byte(t.name))
	w.U32(t.id)
	w.U64(t.nextRID)
	w.U64(t.maxFrozen)
	w.U32(uint32(len(t.catalog)))
	for _, c := range t.catalog {
		w.Bytes(c)
	}
	w.U32(uint32(pages))
}

func writePageImage(w *durable.Writer, im table.PageImage) {
	w.U64(uint64(im.FirstRID))
	w.Bytes(im.Img)
}

// readCheckpointTable decodes a table record; its byte fields alias r's input.
func readCheckpointTable(r *durable.Reader, version uint32) checkpointTable {
	t := checkpointTable{name: string(r.Bytes()), id: r.U32(), nextRID: r.U64(), maxFrozen: r.U64()}
	if version >= 3 {
		t.catalog = make([][]byte, r.Count(4))
		for i := range t.catalog {
			t.catalog[i] = r.Bytes()
		}
	}
	t.images = make([]table.PageImage, r.Count(pageImageWire))
	for p := range t.images {
		t.images[p] = table.PageImage{FirstRID: rel.RowID(r.U64()), Img: r.Bytes()}
	}
	return t
}

// catalogChange is one RecCatalog record: a table's definition (id, name,
// cols), or with index set an index's (its table's id, name, key columns
// by position, unique).
type catalogChange struct {
	id     uint32
	index  bool
	name   string
	cols   []rel.Column
	keys   []int
	unique bool
}

const (
	catalogMagic   uint32 = 0x50434331 // "PCC1"
	catalogVersion uint32 = 1
)

// encodeCatalog frames a catalog change as a RecCatalog payload, which a
// version 3 checkpoint image also stores per table.
func encodeCatalog(c catalogChange) []byte {
	return durable.Encode(catalogMagic, catalogVersion, func(w *durable.Writer) {
		w.U32(c.id)
		w.Bool(c.index)
		w.Bytes([]byte(c.name))
		w.U32(uint32(len(c.cols)))
		for _, col := range c.cols {
			w.Bytes([]byte(col.Name))
			w.U8(uint8(col.Type))
		}
		w.U32(uint32(len(c.keys)))
		for _, k := range c.keys {
			w.U32(uint32(k))
		}
		w.Bool(c.unique)
	})
}

// decodeCatalog verifies and decodes a RecCatalog payload.
func decodeCatalog(payload []byte) (catalogChange, error) {
	r, err := durable.Open(payload, "core: catalog record", catalogMagic, catalogVersion)
	if err != nil {
		return catalogChange{}, err
	}
	c := catalogChange{id: r.U32(), index: r.Bool(), name: string(r.Bytes())}
	c.cols = make([]rel.Column, r.Count(4+1))
	for i := range c.cols {
		c.cols[i] = rel.Column{Name: string(r.Bytes()), Type: rel.Type(r.U8())}
		if t := c.cols[i].Type; t < rel.TInt64 || t > rel.TString {
			return catalogChange{}, fmt.Errorf("core: catalog record: column %q has type %v", c.cols[i].Name, t)
		}
	}
	c.keys = make([]int, r.Count(4))
	for i := range c.keys {
		c.keys[i] = int(r.U32())
	}
	c.unique = r.Bool()
	return c, r.Done()
}

// readCheckpoint decodes the newest checkpoint image; a zero header (and
// no tables) when there is none.
func (e *Engine) readCheckpoint() (CheckpointHeader, []checkpointTable, error) {
	data, err := os.ReadFile(e.checkpointPath())
	if os.IsNotExist(err) {
		return CheckpointHeader{}, nil, nil
	}
	if err != nil {
		return CheckpointHeader{}, nil, err
	}
	hdr, r, err := ReadCheckpointHeader(data)
	if err != nil {
		return CheckpointHeader{}, nil, err
	}
	tables := make([]checkpointTable, r.Count(checkpointTableWire))
	for i := range tables {
		tables[i] = readCheckpointTable(r, hdr.Version)
	}
	return hdr, tables, r.Done()
}

// loadCheckpoint restores the tables' pages and cold segments from a
// decoded image (every table it names must exist by now) and fast-forwards
// the clocks past its horizon.
func (e *Engine) loadCheckpoint(hdr CheckpointHeader, tables []checkpointTable) error {
	for _, ct := range tables {
		t, err := e.Table(ct.name)
		if err != nil {
			return fmt.Errorf("core: checkpoint references undeclared table %q", ct.name)
		}
		if err := t.Store.ImportImages(ct.images, ct.nextRID, ct.maxFrozen); err != nil {
			return err
		}
	}
	if err := e.loadColdManifest(hdr.ColdEpoch, hdr.ColdCRC); err != nil {
		return err
	}
	e.Mgr.Clock.AdvanceTo(hdr.Clock + 1)
	for i := 0; i < e.WAL.NumWriters(); i++ {
		e.WAL.Writer(i).RaiseGSN(hdr.GSN)
	}
	return nil
}
