package backup_test

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/rel"
	"phoebedb/internal/replica"
	"phoebedb/internal/txn"
)

// testdata/parent is a database directory and its archive exactly as the
// commit before internal/durable and wal.Tailer wrote them: kv (175 rows,
// one page frozen into a cold segment) and tags (4 rows); epoch 0 sealed
// by a checkpoint, a base backup in epoch 1, the archive covering kv 1-170
// and every tag, kv 171-175 in the live WAL only. Nothing on disk may have
// changed meaning: the tests below read it with today's code.

const parentKV, parentArchivedKV, parentTags = 175, 170, 4

// copyParent copies the fixture into a scratch directory (recovery and
// archiving write to what they open) and returns the db and archive dirs.
func copyParent(t *testing.T) (dir, arch string) {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir("testdata/parent", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		sub, _ := filepath.Rel("testdata/parent", p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(root, sub), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, sub), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "db"), filepath.Join(root, "archive")
}

// openParentSchema opens an engine on dir with the fixture's two tables.
func openParentSchema(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e := openKV(t, dir)
	if _, err := e.CreateTable("tags", rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "name", Type: rel.TString},
	)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// checkParentRows checks kv holds exactly keys 1..wantKV (value 10k) and
// tags holds the fixture's four names.
func checkParentRows(t *testing.T, e *core.Engine, wantKV int, what string) {
	t.Helper()
	got := scanAll(t, e)
	if len(got) != wantKV {
		t.Fatalf("%s: %d kv rows, want %d", what, len(got), wantKV)
	}
	for k := int64(1); k <= int64(wantKV); k++ {
		if got[k] != k*10 {
			t.Fatalf("%s: kv[%d] = %d, want %d", what, k, got[k], k*10)
		}
	}
	var names []string
	tx := e.Begin(1, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit()
	if err := tx.ScanTable("tags", func(_ rel.RowID, row rel.Row) bool {
		names = append(names, row[1].S)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != parentTags || names[0] != "alpha" || names[3] != "delta" {
		t.Fatalf("%s: tags = %v", what, names)
	}
}

// TestManifestAndLabelGolden pins the PBM1 and PBL1 formats: the parent's
// MANIFEST and backup_label decode and re-encode to the same bytes.
func TestManifestAndLabelGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent/archive/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	m, err := backup.DecodeManifest(golden)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || len(m.Segments) != 2 || !m.Segments[0].Sealed || len(m.SrcOff) != 1 || m.NextBase != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	if re := backup.EncodeManifest(m); !bytes.Equal(re, golden) {
		t.Fatalf("re-encoded MANIFEST differs from the golden:\n% x\n% x", re, golden)
	}

	golden, err = os.ReadFile("testdata/parent/archive/base/000000/backup_label")
	if err != nil {
		t.Fatal(err)
	}
	l, err := backup.DecodeLabel(golden)
	if err != nil {
		t.Fatal(err)
	}
	if l.CheckpointGSN == 0 || l.HorizonGSN < l.CheckpointGSN || len(l.Files) != 3 {
		t.Fatalf("label = %+v", l)
	}
	if re := backup.EncodeLabel(l); !bytes.Equal(re, golden) {
		t.Fatalf("re-encoded backup_label differs from the golden:\n% x\n% x", re, golden)
	}
}

// TestParentDirectoryOpensVerifiesRestoresAndShips: the parent's files are
// recovered, verified, restored, tailed by a standby and archived further.
func TestParentDirectoryOpensVerifiesRestoresAndShips(t *testing.T) {
	dir, arch := copyParent(t)

	rep, err := backup.Verify(arch)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(rep.Bases) != 1 || !rep.Bases[0].Complete || rep.Epochs != 1 {
		t.Fatalf("verify report = %+v", rep)
	}

	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := backup.Restore(arch, dest, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored := openParentSchema(t, dest)
	if _, err := restored.Recover(); err != nil {
		t.Fatalf("restored recover: %v", err)
	}
	checkParentRows(t, restored, parentArchivedKV, "restore")
	if restored.ColdStats().Segments == 0 {
		t.Fatal("restore lost the cold segment")
	}

	// A standby ships the archived stream plus the live tail.
	sEng := openParentSchema(t, t.TempDir())
	s := replica.NewStandby(sEng, filepath.Join(dir, "wal"))
	s.ArchiveDir = arch
	if _, err := s.CatchUp(); err != nil {
		t.Fatalf("standby catch-up: %v", err)
	}
	checkParentRows(t, sEng, parentKV, "standby")

	// The archiver resumes from the parent's MANIFEST (SrcOff into the live
	// file) and covers the tail; the database itself recovers.
	a, err := backup.OpenArchiver(filepath.Join(dir, "wal"), arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.Archive(); err != nil || n == 0 {
		t.Fatalf("archive the live tail: %d bytes, %v", n, err)
	}
	if a.LagBytes() != 0 {
		t.Fatalf("lag after catching up = %d", a.LagBytes())
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatalf("verify after archiving the tail: %v", err)
	}
	primary := openParentSchema(t, dir)
	if _, err := primary.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkParentRows(t, primary, parentKV, "recovered database")
}

// TestParentCrashBetweenSealAndTruncate: the parent sealed an epoch and
// crashed before it truncated its one log file, so wal-0000.log, named
// below the seal horizon, still holds the sealed epoch's records and the
// manifest's position is its start. The fixture is put into that state:
// the live file holds the epoch-0 segment's records, and the archive ends
// at the seal. The reopened archiver and an archive-following standby skip
// the sealed records there and take the commits after them, so the archive
// restores to the primary's rows, each once.
func TestParentCrashBetweenSealAndTruncate(t *testing.T) {
	dir, arch := copyParent(t)
	m, err := backup.LoadManifest(arch)
	if err != nil {
		t.Fatal(err)
	}
	sealed := m.Segments[0]
	sealedBytes, err := os.ReadFile(backup.SegmentPath(arch, &sealed))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "wal-0000.log"), sealedBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(arch, "base"), backup.SegmentPath(arch, &m.Segments[1])} {
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
	}
	m.Segments, m.SrcOff, m.NextBase = m.Segments[:1], []uint64{0}, 0
	if err := os.WriteFile(filepath.Join(arch, backup.ManifestName), backup.EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}

	primary := openParentSchema(t, dir)
	if _, err := primary.Recover(); err != nil {
		t.Fatal(err)
	}
	a, err := backup.OpenArchiver(filepath.Join(dir, "wal"), arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary.SetWALArchiver(a)
	sEng := openParentSchema(t, t.TempDir())
	s := replica.NewStandby(sEng, filepath.Join(dir, "wal"))
	s.ArchiveDir = arch
	for k := int64(1000); k < 1005; k++ {
		put(t, primary, k, k*10)
	}
	// The standby's first round finds the sealed records live, ahead of
	// the archiver.
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	want := scanAll(t, primary)
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	put(t, primary, 1005, 10050) // live only
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, sEng); len(got) != len(want)+1 || got[1005] != 10050 {
		t.Fatalf("standby holds %d kv rows, want %d", len(got), len(want)+1)
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatal(err)
	}
	got := restoreAndScan(t, arch, 0)
	if !maps.Equal(got, want) {
		t.Fatalf("restore holds %d kv rows, the primary %d", len(got), len(want))
	}
}
