package replica

// Regression tests for standby shipping across primary checkpoints (the
// old log file is removed under the standby) and for promotion when the
// primary dies mid-transaction.

import (
	"errors"
	"testing"
	"time"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/fault/crashtest"
	"phoebedb/internal/rel"
	"phoebedb/internal/tpcc"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

func insertAccount(id int64) func(tx *core.Tx) error {
	return func(tx *core.Tx) error {
		_, err := tx.Insert("accounts", rel.Row{rel.Int(id), rel.Str("o"), rel.Float(float64(id))})
		return err
	}
}

// TestCatchUpLostPositionAfterCheckpoint: a primary checkpoint removes the
// log file the standby was shipping from. Silently resetting the position
// would stall (or replay garbage); the standby must instead report
// ErrLostPosition so the operator re-seeds it or points it at an archive.
func TestCatchUpLostPositionAfterCheckpoint(t *testing.T) {
	primary, s := pair(t)
	for i := int64(1); i <= 5; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, err := s.CatchUp()
	if !errors.Is(err, ErrLostPosition) {
		t.Fatalf("CatchUp after the checkpoint returned %v, want ErrLostPosition", err)
	}
}

// TestCatchUpDetectsTruncateRegrow is the variant that once needed a
// first-GSN check: between two polls the log moves to a new file that
// grows past the standby's offset. The standby never reads the new file at
// the old offset: its own file is gone.
func TestCatchUpDetectsTruncateRegrow(t *testing.T) {
	primary, s := pair(t)
	for i := int64(1); i <= 3; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Regrow well past the pre-checkpoint offset before the next poll.
	for i := int64(10); i <= 40; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	_, err := s.CatchUp()
	if !errors.Is(err, ErrLostPosition) {
		t.Fatalf("CatchUp after the checkpoint and regrowth returned %v, want ErrLostPosition", err)
	}
}

// TestStandbyArchiveSurvivesCheckpoint: with ArchiveDir set the standby
// ships from the append-only archive stream plus the live tail, so any
// number of primary checkpoints must pass through it without losing
// position or records.
func TestStandbyArchiveSurvivesCheckpoint(t *testing.T) {
	pdir := t.TempDir()
	primary, err := core.Open(core.Config{Dir: pdir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	declare(t, primary)
	arch := t.TempDir()
	a, err := backup.OpenArchiver(primary.WAL.Dir(), arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	primary.SetWALArchiver(a)

	sEng, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sEng.Close() })
	declare(t, sEng)
	s := NewStandby(sEng, primary.WAL.Dir())
	s.ArchiveDir = arch

	id := int64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			id++
			commitTx(t, primary, 0, insertAccount(id))
		}
		if _, err := a.Archive(); err != nil {
			t.Fatalf("round %d: archive: %v", round, err)
		}
		if _, err := s.CatchUp(); err != nil {
			t.Fatalf("round %d: catch up: %v", round, err)
		}
		if err := primary.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		if _, err := s.CatchUp(); err != nil {
			t.Fatalf("round %d: catch up across checkpoint: %v", round, err)
		}
	}
	// A tail the archiver has not copied yet ships from the live file.
	id++
	commitTx(t, primary, 0, insertAccount(id))
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= id; i++ {
		if _, ok := standbyRead(t, s, i); !ok {
			t.Fatalf("standby missing account %d after %d checkpoints", i, 3)
		}
	}
}

// TestPromoteDropsUncommittedTail: the primary dies mid-transaction, its
// data records buffered but never written: a flush writes committed records
// only. Promotion surfaces none of that work — exactly what the primary's
// own crash recovery would do — and leaves a writable engine.
func TestPromoteDropsUncommittedTail(t *testing.T) {
	primary, s := pair(t)
	for i := int64(1); i <= 3; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	// In-flight transaction: records appended, commit never written.
	tx := primary.Begin(1, txn.ReadCommitted, nil, nil, nil)
	if _, err := tx.Insert("accounts", rel.Row{rel.Int(100), rel.Str("x"), rel.Float(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("accounts", rel.Row{rel.Int(101), rel.Str("x"), rel.Float(0)}); err != nil {
		t.Fatal(err)
	}
	if err := primary.WAL.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// The primary "dies" here: abandoned mid-transaction, never closed.
	if n := logged(t, primary, func(r wal.Record) bool { return r.XID == tx.XID() }); n != 0 {
		t.Fatalf("the primary's log holds %d records of the open transaction", n)
	}

	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, ok := standbyRead(t, s, i); !ok {
			t.Fatalf("promoted standby lost committed account %d", i)
		}
	}
	for _, id := range []int64{100, 101} {
		if _, ok := standbyRead(t, s, id); ok {
			t.Fatalf("promoted standby surfaced uncommitted account %d", id)
		}
	}
	// The promoted engine is the new primary: it must accept writes.
	commitTx(t, s.Engine, 0, insertAccount(200))
	if _, ok := standbyRead(t, s, 200); !ok {
		t.Fatal("promoted standby did not accept a new commit")
	}
}

// TestPromoteMidTPCCConsistency crashes a concurrent TPC-C primary at a
// WAL failpoint — terminals die mid-transaction with flushed but
// uncommitted records — then promotes the standby and runs the
// benchmark's consistency conditions against it.
func TestPromoteMidTPCCConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("tpcc promote run skipped in -short")
	}
	fault.Reset()
	defer fault.Reset()
	const terminals = 4
	const seed = 0x5EED5
	open := func(dir string) (*core.Engine, *crashtest.EngineBackend) {
		e, err := core.Open(core.Config{
			Dir:         dir,
			Slots:       terminals + 1,
			WALSync:     true,
			LockTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := crashtest.NewEngineBackend(e, terminals)
		if err := tpcc.Declare(b); err != nil {
			t.Fatal(err)
		}
		return e, b
	}
	pe, pb := open(t.TempDir())
	se, sb := open(t.TempDir())
	t.Cleanup(func() { se.Close() })
	s := NewStandby(se, pe.WAL.Dir())

	sc := tpcc.Small(2)
	if err := tpcc.LoadSeeded(pb, sc, 200, seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.WALPreSync, "panic@200"); err != nil {
		t.Fatal(err)
	}
	res := tpcc.Run(pb, tpcc.DriverConfig{Scale: sc, Terminals: terminals, Transactions: 2000, Seed: seed})
	if !pb.Crashed() {
		t.Fatalf("tpcc run never crashed (completed %d txns)", res.Total())
	}
	fault.Reset()
	// The primary is dead mid-transaction; abandon it and fail over.
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.CheckConsistency(sb, sc); err != nil {
		t.Fatalf("promoted standby inconsistent (seed %d): %v", seed, err)
	}
}

// TestPromotedStandbyRestarts: a promoted standby is a primary in its own
// right, so its directory alone must recover — the catalog and rows it
// applied from the old primary, the index over them, and its own writes
// after promotion.
func TestPromotedStandbyRestarts(t *testing.T) {
	primary, err := core.Open(core.Config{Dir: t.TempDir(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	sdir := t.TempDir()
	sEng, err := core.Open(core.Config{Dir: sdir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStandby(sEng, primary.WAL.Dir())
	declare(t, primary)
	for i := int64(1); i <= 3; i++ {
		commitTx(t, primary, 0, insertAccount(i))
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	commitTx(t, sEng, 0, insertAccount(4))
	if err := sEng.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := core.Open(core.Config{Dir: sdir, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if _, err := reopened.Recover(); err != nil {
		t.Fatalf("recover the promoted standby: %v", err)
	}
	tx := reopened.Begin(3, txn.ReadCommitted, nil, nil, nil)
	defer tx.Rollback()
	for id := int64(1); id <= 4; id++ {
		_, row, found, err := tx.GetByIndex("accounts", "accounts_pk", rel.Int(id))
		if err != nil || !found || row[2].F != float64(id) {
			t.Fatalf("account %d after restart = (%v, %v, %v)", id, row, found, err)
		}
	}
}
