package txn

import (
	"errors"
	"testing"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
	"phoebedb/internal/undo"
)

// begin starts a transaction in a fresh Txn (the engine reuses one per slot).
func begin(m *Manager, slot int, iso Isolation) *Txn {
	t := new(Txn)
	m.Begin(t, slot, iso)
	return t
}

func row(s string) rel.Row { return rel.Row{rel.Str(s)} }

func delta(s string) []undo.ColVal { return []undo.ColVal{{Col: 0, Val: rel.Str(s)}} }

func TestBeginAssignsXIDAndStart(t *testing.T) {
	m := NewManager(2)
	tx := begin(m, 0, ReadCommitted)
	if !clock.IsXID(tx.XID()) {
		t.Fatal("XID flag missing")
	}
	if clock.StartTS(tx.XID()) != tx.StartTS {
		t.Fatal("XID does not encode start timestamp")
	}
	if tx.Iso != ReadCommitted || tx.Slot != 0 {
		t.Fatal("txn fields wrong")
	}
}

func TestSnapshotSemantics(t *testing.T) {
	m := NewManager(1)
	rc := begin(m, 0, ReadCommitted)
	s1 := rc.Snapshot()
	m.Clock.Next() // someone commits
	if rc.Snapshot() != s1 {
		t.Fatal("snapshot moved without refresh")
	}
	rc.RefreshSnapshot()
	if rc.Snapshot() <= s1 {
		t.Fatal("read committed snapshot did not advance")
	}
	rc.FinalizeCommit(rc.PrepareCommit())

	rr := begin(m, 0, RepeatableRead)
	s2 := rr.Snapshot()
	m.Clock.Next()
	rr.RefreshSnapshot()
	if rr.Snapshot() != s2 {
		t.Fatal("repeatable read snapshot moved")
	}
	rr.FinalizeCommit(rr.PrepareCommit())
}

// buildExample5 recreates Figure 5 / Example 6.2:
//
//	rid1: current 'a' by XID7 (uncommitted); chain: [sts=6, ets=XID7,
//	      before 'b'] -> [sts=3, ets=6, before 'c']
//	rid2: current 'b'; chain: [sts=?, ets=3, before ...] (header visible)
//	rid3: current 'c'; chain: [sts=3, ets=6, before 'a']
func buildExample5(t *testing.T) (m *Manager, heads [3]*undo.Record) {
	t.Helper()
	m = NewManager(1)
	a := m.Arena(0)

	// rid1 history: committed at 3 ('c' -> 'b' at ts 6 by XID4), then XID7
	// uncommitted ('b' -> 'a').
	m4 := undo.NewTxnMeta(clock.MakeXID(4))
	r1old := a.New(m4, 1, 1, undo.OpUpdate, delta("c"), nil)
	r1old.SetSTS(3)
	m4.Commit(6)
	r1old.SetETS(6)
	m7 := undo.NewTxnMeta(clock.MakeXID(7))
	r1new := a.New(m7, 1, 1, undo.OpUpdate, delta("b"), r1old)
	if r1new.STS() != 6 {
		t.Fatalf("rid1 head sts = %d, want 6", r1new.STS())
	}
	heads[0] = r1new

	// rid2: header committed at 3.
	m2 := undo.NewTxnMeta(clock.MakeXID(2))
	r2 := a.New(m2, 1, 2, undo.OpUpdate, delta("a"), nil)
	r2.SetSTS(1)
	m2.Commit(3)
	r2.SetETS(3)
	heads[1] = r2

	// rid3: header committed at 6, before-image 'a' committed at 3.
	m6 := undo.NewTxnMeta(clock.MakeXID(5))
	r3 := a.New(m6, 1, 3, undo.OpUpdate, delta("a"), nil)
	r3.SetSTS(3)
	m6.Commit(6)
	r3.SetETS(6)
	heads[2] = r3
	return m, heads
}

func TestExample62Visibility(t *testing.T) {
	_, heads := buildExample5(t)
	snapshot := uint64(5)
	xid := clock.MakeXID(3) // the reading transaction

	// rid1: 'a' invisible (ets=XID7), 'b' invisible (sts 6 > 5) -> 'c'.
	got, ok := ReadVisible(heads[0], snapshot, xid, row("a"), false)
	if !ok || got[0].S != "c" {
		t.Fatalf("rid1 = (%v,%v), want c", got, ok)
	}
	// rid2: header ets 3 <= 5 -> current 'b' visible.
	got, ok = ReadVisible(heads[1], snapshot, xid, row("b"), false)
	if !ok || got[0].S != "b" {
		t.Fatalf("rid2 = (%v,%v), want b", got, ok)
	}
	// rid3: header ets 6 > 5 -> before-image 'a' (sts 3 <= 5).
	got, ok = ReadVisible(heads[2], snapshot, xid, row("c"), false)
	if !ok || got[0].S != "a" {
		t.Fatalf("rid3 = (%v,%v), want a", got, ok)
	}
}

func TestOwnWritesVisible(t *testing.T) {
	_, heads := buildExample5(t)
	// XID7 reads rid1: its own uncommitted 'a' is visible.
	got, ok := ReadVisible(heads[0], 5, clock.MakeXID(7), row("a"), false)
	if !ok || got[0].S != "a" {
		t.Fatalf("own write = (%v,%v)", got, ok)
	}
}

func TestVisibilityNoChain(t *testing.T) {
	if got, ok := ReadVisible(nil, 5, clock.MakeXID(1), row("x"), false); !ok || got[0].S != "x" {
		t.Fatal("chainless tuple not visible")
	}
	if _, ok := ReadVisible(nil, 5, clock.MakeXID(1), row("x"), true); ok {
		t.Fatal("tombstoned chainless tuple visible")
	}
}

func TestVisibilityReclaimedHead(t *testing.T) {
	m := NewManager(1)
	a := m.Arena(0)
	meta := undo.NewTxnMeta(clock.MakeXID(1))
	rec := a.New(meta, 1, 1, undo.OpUpdate, delta("old"), nil)
	meta.Commit(2)
	rec.SetETS(2)
	a.Reclaim(100, nil)
	// Reclaimed chain: current tuple visible as-is (§6.2).
	got, ok := ReadVisible(rec, 1, clock.MakeXID(9), row("new"), false)
	if !ok || got[0].S != "new" {
		t.Fatalf("reclaimed head = (%v,%v)", got, ok)
	}
}

func TestVisibilityInsertNotYetVisible(t *testing.T) {
	m := NewManager(1)
	a := m.Arena(0)
	meta := undo.NewTxnMeta(clock.MakeXID(4))
	rec := a.New(meta, 1, 1, undo.OpInsert, nil, nil)
	meta.Commit(10)
	rec.SetETS(10)
	// Snapshot 5 predates the insert: row must not exist.
	if _, ok := ReadVisible(rec, 5, clock.MakeXID(2), row("v"), false); ok {
		t.Fatal("row visible before its insert committed")
	}
	// Snapshot 10 sees it.
	if _, ok := ReadVisible(rec, 10, clock.MakeXID(2), row("v"), false); !ok {
		t.Fatal("row invisible at insert cts")
	}
}

func TestVisibilityDeleteResurrection(t *testing.T) {
	m := NewManager(1)
	a := m.Arena(0)
	meta := undo.NewTxnMeta(clock.MakeXID(6))
	rec := a.New(meta, 1, 1, undo.OpDelete, nil, nil)
	rec.SetSTS(3)
	meta.Commit(8)
	rec.SetETS(8)
	// Snapshot 5: delete not yet visible, row resurrected from tombstone.
	got, ok := ReadVisible(rec, 5, clock.MakeXID(2), row("v"), true)
	if !ok || got[0].S != "v" {
		t.Fatalf("pre-delete snapshot = (%v,%v)", got, ok)
	}
	// Snapshot 9: delete visible -> gone.
	if _, ok := ReadVisible(rec, 9, clock.MakeXID(2), row("v"), true); ok {
		t.Fatal("deleted row visible after delete cts")
	}
}

func TestCommitAtomicityViaMeta(t *testing.T) {
	// A committed-but-unstamped record must already be visible at its cts.
	m := NewManager(1)
	tx := begin(m, 0, ReadCommitted)
	rec := tx.AddUndo(1, 1, undo.OpUpdate, delta("old"), nil)
	cts := tx.PrepareCommit()
	// Before FinalizeCommit: not committed, and invisible to a snapshot
	// taken before the commit timestamp was drawn.
	if _, committed := rec.EffectiveETS(); committed {
		t.Fatal("record committed before finalize")
	}
	if tx.Meta.Status() != undo.StatusPreparing || tx.Meta.CTS() != cts {
		t.Fatalf("prepared meta: status %d cts %d, want Preparing at %d", tx.Meta.Status(), tx.Meta.CTS(), cts)
	}
	got, ok := ReadVisible(rec, cts-1, clock.MakeXID(999), row("new"), false)
	if !ok || got[0].S != "old" {
		t.Fatal("uncommitted write leaked")
	}
	tx.Meta.Commit(cts) // the atomic flip, before any stamping
	got, ok = ReadVisible(rec, cts, clock.MakeXID(999), row("new"), false)
	if !ok || got[0].S != "new" {
		t.Fatalf("committed write invisible at cts: (%v,%v)", got, ok)
	}
}

// A snapshot at or above a Preparing writer's cts must not decide before
// the writer does: it waits, then sees the commit — or, when the commit
// flush fails, the before image.
func TestPreparingWriterIsWaitedOut(t *testing.T) {
	for _, commit := range []bool{true, false} {
		m := NewManager(2)
		tx := begin(m, 0, ReadCommitted)
		rec := tx.AddUndo(1, 1, undo.OpUpdate, delta("old"), nil)
		cts := tx.PrepareCommit()
		waited := 0
		st := VisStats{Wait: func(meta *undo.TxnMeta) bool {
			waited++
			if meta != tx.Meta {
				t.Fatalf("waited on meta %d, want the writer's", meta.XID)
			}
			if commit {
				tx.FinalizeCommit(cts)
			} else {
				tx.AbortPrepared()
			}
			return true
		}}
		got, ok := ReadVisibleAt(rec, cts, clock.MakeXID(999), 0, row("new"), false, false, &st)
		want := map[bool]string{true: "new", false: "old"}[commit]
		if waited != 1 || !ok || got[0].S != want {
			t.Fatalf("commit=%v: read %v (ok=%v) after %d waits, want %q after one", commit, got, ok, waited, want)
		}
		// Above the snapshot the writer is invisible without a wait.
		st.Wait = func(*undo.TxnMeta) bool {
			t.Fatal("waited on a commit above the snapshot")
			return false
		}
		tx2 := begin(m, 1, ReadCommitted)
		rec2 := tx2.AddUndo(1, 2, undo.OpUpdate, delta("old"), nil)
		cts2 := tx2.PrepareCommit()
		if got, _ := ReadVisibleAt(rec2, cts2-1, clock.MakeXID(999), 0, row("new"), false, false, &st); got[0].S != "old" {
			t.Fatalf("snapshot below a preparing cts read %v", got)
		}
		// A reader that gives up waiting decides nothing more: the version
		// counts as invisible, and the reader fails its read.
		st.Wait = func(*undo.TxnMeta) bool { return false }
		if got, _ := ReadVisibleAt(rec2, cts2, clock.MakeXID(999), 0, row("new"), false, false, &st); got[0].S != "old" {
			t.Fatalf("a reader that gave up read %v", got)
		}
	}
}

func TestCheckWriteConflict(t *testing.T) {
	m := NewManager(2)
	// Foreign uncommitted head -> wait.
	writer := begin(m, 0, ReadCommitted)
	rec := writer.AddUndo(1, 1, undo.OpUpdate, delta("x"), nil)
	me := begin(m, 1, ReadCommitted)
	wait, err := CheckWriteConflict(rec, me)
	if err != nil || wait != writer.Meta {
		t.Fatalf("conflict = (%v,%v), want wait on writer", wait, err)
	}
	// Own head -> proceed.
	if wait, err := CheckWriteConflict(rec, writer); wait != nil || err != nil {
		t.Fatal("own write should proceed")
	}
	// Committed head, read committed -> proceed.
	writer.FinalizeCommit(writer.PrepareCommit())
	if wait, err := CheckWriteConflict(rec, me); wait != nil || err != nil {
		t.Fatalf("RC conflict = (%v,%v)", wait, err)
	}
	me.FinalizeCommit(me.PrepareCommit())

	// Repeatable read: version committed after snapshot -> abort.
	rr := begin(m, 1, RepeatableRead)
	rr.Snapshot()
	w2 := begin(m, 0, ReadCommitted)
	rec2 := w2.AddUndo(1, 2, undo.OpUpdate, delta("y"), nil)
	w2.FinalizeCommit(w2.PrepareCommit())
	if _, err := CheckWriteConflict(rec2, rr); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("RR conflict err = %v", err)
	}
	rr.FinalizeAbort()
	// Nil / reclaimed heads -> proceed.
	fresh := begin(m, 1, RepeatableRead)
	if wait, err := CheckWriteConflict(nil, fresh); wait != nil || err != nil {
		t.Fatal("nil head should proceed")
	}
	fresh.FinalizeAbort()
}

func TestMinActiveStartTS(t *testing.T) {
	m := NewManager(3)
	idle := m.MinActiveStartTS()
	if idle != m.Clock.Now()+1 {
		t.Fatalf("idle watermark = %d", idle)
	}
	t1 := begin(m, 0, ReadCommitted)
	m.Clock.Next()
	t2 := begin(m, 1, ReadCommitted)
	if m.MinActiveStartTS() != t1.StartTS {
		t.Fatalf("watermark = %d, want %d", m.MinActiveStartTS(), t1.StartTS)
	}
	t1.FinalizeCommit(t1.PrepareCommit())
	if m.MinActiveStartTS() != t2.StartTS {
		t.Fatalf("watermark after t1 = %d, want %d", m.MinActiveStartTS(), t2.StartTS)
	}
	t2.FinalizeCommit(t2.PrepareCommit())
}

func TestCollectGarbageRespectsActiveSnapshot(t *testing.T) {
	m := NewManager(2)
	old := begin(m, 0, RepeatableRead)
	old.Snapshot() // pins a snapshot at the current clock

	w := begin(m, 1, ReadCommitted)
	w.AddUndo(1, 1, undo.OpUpdate, delta("before"), nil)
	w.FinalizeCommit(w.PrepareCommit())

	// w committed after old began; its record must survive GC.
	if n := m.CollectGarbage(nil); n != 0 {
		t.Fatalf("reclaimed %d records needed by active snapshot", n)
	}
	old.FinalizeCommit(old.PrepareCommit())
	if n := m.CollectGarbage(nil); n != 1 {
		t.Fatalf("reclaimed %d records after reader finished, want 1", n)
	}
}

func TestMaxFrozenXIDAdvances(t *testing.T) {
	m := NewManager(1)
	w := begin(m, 0, ReadCommitted)
	w.AddUndo(1, 1, undo.OpUpdate, delta("v"), nil)
	w.FinalizeCommit(w.PrepareCommit())
	// Unreclaimed record holds the watermark below the writer's XID.
	if mf := m.MaxFrozenXID(); mf >= w.XID() {
		t.Fatalf("watermark %x not below writer %x", mf, w.XID())
	}
	m.CollectGarbage(nil)
	if mf := m.MaxFrozenXID(); mf < w.XID() {
		t.Fatalf("watermark %x below writer %x after GC", mf, w.XID())
	}
}

func TestDoubleFinalizePanics(t *testing.T) {
	m := NewManager(1)
	tx := begin(m, 0, ReadCommitted)
	tx.FinalizeCommit(tx.PrepareCommit())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double finalize")
		}
	}()
	tx.FinalizeAbort()
}

func TestIsolationString(t *testing.T) {
	if ReadCommitted.String() != "read committed" || RepeatableRead.String() != "repeatable read" {
		t.Fatal("isolation names wrong")
	}
}

func BenchmarkSnapshotAcquisition(b *testing.B) {
	m := NewManager(1)
	tx := begin(m, 0, ReadCommitted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.RefreshSnapshot()
		_ = tx.Snapshot()
	}
}

func BenchmarkVisibilityCheckHeaderHit(b *testing.B) {
	m := NewManager(1)
	a := m.Arena(0)
	meta := undo.NewTxnMeta(clock.MakeXID(1))
	rec := a.New(meta, 1, 1, undo.OpUpdate, delta("old"), nil)
	meta.Commit(2)
	rec.SetETS(2)
	cur := row("new")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReadVisible(rec, 5, clock.MakeXID(9), cur, false)
	}
}
