package frozen

import (
	"errors"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

func TestExportImportRoundTrip(t *testing.T) {
	bf, err := storage.OpenBlockFile(t.TempDir()+"/blocks", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	src := NewStore(bf, testSchema())
	ids1, rows1 := batch(1, 10)
	src.Freeze(ids1, rows1)
	ids2, rows2 := batch(20, 5)
	src.Freeze(ids2, rows2)
	src.MarkDeleted(3)
	src.MarkDeleted(22)

	metas := src.Export()
	if len(metas) != 2 {
		t.Fatalf("exported %d blocks", len(metas))
	}
	if len(metas[0].Deleted) != 1 || metas[0].Deleted[0] != 3 {
		t.Fatalf("block 0 deleted = %v", metas[0].Deleted)
	}

	// Import over the same block file (checkpoint recovery path).
	dst := NewStore(bf, testSchema())
	if err := dst.Import(metas); err != nil {
		t.Fatal(err)
	}
	if dst.NumSegments() != 2 || dst.MaxRID() != 24 {
		t.Fatalf("imported = %d segments, max %d", dst.NumSegments(), dst.MaxRID())
	}
	// Live row reads back; tombstones survived.
	row, ok, err := dst.Get(5, nil)
	if err != nil || !ok || row[0].I != 5 {
		t.Fatalf("Get(5) = (%v,%v,%v)", row, ok, err)
	}
	if _, ok, _ := dst.Get(3, nil); ok {
		t.Fatal("tombstone lost on import")
	}
	if _, ok, _ := dst.Get(22, nil); ok {
		t.Fatal("tombstone in block 2 lost on import")
	}
	// Import into a non-empty store is rejected.
	if err := dst.Import(metas); err == nil {
		t.Fatal("import into non-empty store accepted")
	}
}

func TestExportEmptyStore(t *testing.T) {
	bf, _ := storage.OpenBlockFile(t.TempDir()+"/blocks", nil)
	defer bf.Close()
	s := NewStore(bf, testSchema())
	if metas := s.Export(); len(metas) != 0 {
		t.Fatalf("empty export = %v", metas)
	}
	if err := s.Import(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(rel.RowID(1), nil); ok {
		t.Fatal("phantom row")
	}
}

// A block directory entry that reaches past its segment is refused with a
// *BlockRangeError by Import and by VerifySegmentBytes, so no read is ever
// issued for it: a length of 2^31 would make a negative read length (a
// panic in the read), and 1 MiB would read past the end of the file.
func TestImportRejectsBlockOutsideSegment(t *testing.T) {
	s := newWideStore(t)
	s.BlockRows = 16
	ids, rows := wideBatch(0, 64)
	mustFreeze(t, s, ids, rows)
	m := s.Export()[0]
	data, err := s.bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, compLen := range []uint32{1 << 31, 1 << 20} {
		forged, fm := resealHeader(t, data, m, func(g *segment) { g.blocks[0].compLen = compLen })
		var re *BlockRangeError
		if err := VerifySegmentBytes(forged, fm); !errors.As(err, &re) || re.Block != 0 || re.Len != compLen {
			t.Fatalf("compLen %d: VerifySegmentBytes = %v, want a *BlockRangeError for block 0", compLen, err)
		}
		dst := newWideStore(t)
		if fm.Ref, err = dst.bf.AppendBlock(forged); err != nil {
			t.Fatal(err)
		}
		err := dst.Import([]SegmentMeta{fm})
		if err == nil {
			_, _, gerr := dst.Get(1, nil)
			t.Fatalf("compLen %d: Import accepted the segment; Get(1) = %v", compLen, gerr)
		}
		if !errors.As(err, &re) || re.Block != 0 || re.Len != compLen {
			t.Fatalf("compLen %d: Import = %v, want a *BlockRangeError for block 0", compLen, err)
		}
	}
}
