package frozen

import (
	"fmt"
	"sort"

	"phoebedb/internal/durable"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// The cold manifest is the durable segment directory: one record per
// table naming every live segment (location, level, row range, header
// length, whole-segment CRC) plus its persisted tombstones. Manifests are
// immutable, epoch-named files (cold.manifest.<epoch>) written inside the
// checkpoint quiesce window; the checkpoint image records the epoch and
// CRC, so the checkpoint's atomic rename is also the manifest swap commit
// point. Superseded segments stay in the append-only block file, which is
// what makes crash recovery trivial: whatever epoch the surviving
// checkpoint names is fully intact.
const (
	manifestMagic   uint32 = 0x50434D31 // "PCM1"
	manifestVersion uint32 = 1
)

// ManifestFileName returns the file name for a manifest epoch.
func ManifestFileName(epoch uint64) string {
	return fmt.Sprintf("cold.manifest.%d", epoch)
}

// SegmentMeta is one segment's manifest record.
type SegmentMeta struct {
	Level     int
	Flat      bool
	FirstRID  rel.RowID
	LastRID   rel.RowID
	NumRows   int
	Ref       storage.BlockRef
	HeaderLen int
	CRC       uint32 // crc32 (IEEE) of the full segment bytes
	Deleted   []rel.RowID
}

// TableManifest is one table's segment list, keyed by table name (stable
// across restarts, unlike numeric table ids).
type TableManifest struct {
	Table    string
	Segments []SegmentMeta
}

// Manifest is a full cold-tier directory snapshot.
type Manifest struct {
	Epoch  uint64
	Tables []TableManifest
}

// segmentMetaWire is the encoded size of a SegmentMeta with no tombstones.
const segmentMetaWire = 4 + 1 + 8 + 8 + 4 + 8 + 4 + 4 + 4 + 4

// EncodeManifest serializes m as a durable frame.
func EncodeManifest(m *Manifest) []byte {
	return durable.Encode(manifestMagic, manifestVersion, func(w *durable.Writer) {
		w.U64(m.Epoch)
		w.U32(uint32(len(m.Tables)))
		for _, t := range m.Tables {
			w.Bytes([]byte(t.Table))
			w.U32(uint32(len(t.Segments)))
			for _, s := range t.Segments {
				w.U32(uint32(s.Level))
				w.Bool(s.Flat)
				w.U64(uint64(s.FirstRID))
				w.U64(uint64(s.LastRID))
				w.U32(uint32(s.NumRows))
				w.U64(uint64(s.Ref.Offset))
				w.U32(uint32(s.Ref.Len))
				w.U32(uint32(s.HeaderLen))
				w.U32(s.CRC)
				w.U32(uint32(len(s.Deleted)))
				for _, rid := range s.Deleted {
					w.U64(uint64(rid))
				}
			}
		}
	})
}

// DecodeManifest parses and CRC-checks a manifest image.
func DecodeManifest(data []byte) (*Manifest, error) {
	r, err := durable.Open(data, "frozen: manifest", manifestMagic, manifestVersion)
	if err != nil {
		return nil, err
	}
	m := &Manifest{Epoch: r.U64()}
	for ti, nt := 0, r.Count(4+4); ti < nt; ti++ {
		t := TableManifest{Table: string(r.Bytes())}
		for si, ns := 0, r.Count(segmentMetaWire); si < ns; si++ {
			s := SegmentMeta{
				Level:    int(r.U32()),
				Flat:     r.Bool(),
				FirstRID: rel.RowID(r.U64()),
				LastRID:  rel.RowID(r.U64()),
				NumRows:  int(r.U32()),
				Ref:      storage.BlockRef{Offset: int64(r.U64()), Len: int32(r.U32())},
			}
			s.HeaderLen = int(r.U32())
			s.CRC = r.U32()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if s.FirstRID > s.LastRID || s.NumRows < 0 || s.Ref.Len < 0 || s.HeaderLen <= 0 {
				return nil, fmt.Errorf("frozen: manifest segment record invalid")
			}
			for di, nd := 0, r.Count(8); di < nd; di++ {
				s.Deleted = append(s.Deleted, rel.RowID(r.U64()))
			}
			t.Segments = append(t.Segments, s)
		}
		if !sort.SliceIsSorted(t.Segments, func(i, j int) bool {
			return t.Segments[i].FirstRID < t.Segments[j].FirstRID
		}) {
			return nil, fmt.Errorf("frozen: manifest segments out of rid order for table %q", t.Table)
		}
		m.Tables = append(m.Tables, t)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
