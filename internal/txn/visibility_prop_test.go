package txn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
	"phoebedb/internal/undo"
)

// The watermark fast path must be invisible to correctness: for every
// reachable chain shape and every valid watermark, ReadVisibleAt returns
// byte-identical rows and the same existence verdict as the reference
// ReadVisible walk. Chains are generated the way the engine builds them —
// an insert, a run of updates, an optional delete, with every record below
// the head committed (write locks serialize tuple writers) and the head
// committed, still active, preparing, or reclaimed; commit-timestamp
// stamping of any committed record may or may not have happened yet
// (readers race the commit-phase SetETS scan). A preparing head has drawn
// its cts and waits for its commit record: a reader at or above that cts
// must wait it out, and sees it committed or aborted afterwards.

// chainScenario is one randomized single-tuple history plus a reader.
type chainScenario struct {
	head     *undo.Record
	current  rel.Row
	deleted  bool
	snapshot uint64
	xid      uint64
	// watermark is a valid lower bound: at most snapshot+1 (the strict
	// fast-path comparison makes snapshot+1 the maximal safe value, the
	// same margin Begin's delayed slot publication requires).
	watermark uint64
	// commitPrepared says how a preparing head's flush ends: the commit
	// becomes durable, or it fails and the writer aborts.
	commitPrepared bool
}

func genChain(r *rand.Rand) chainScenario {
	arena := undo.NewArena(0)
	ts := uint64(10)
	tick := func() uint64 { ts++; return ts }

	cur := rel.Row{rel.Int(0), rel.Str("v0")}
	deleted := false
	var head *undo.Record

	nUpdates := r.Intn(5)
	withInsert := r.Intn(2) == 0 // chain may predate reclamation of the insert
	withDelete := r.Intn(4) == 0

	newWriter := func(op undo.Op, delta []undo.ColVal) *undo.Record {
		meta := undo.NewTxnMeta(clock.MakeXID(tick()))
		rec := arena.New(meta, 1, 7, op, delta, head)
		head = rec
		return rec
	}
	commit := func(rec *undo.Record) {
		cts := tick()
		rec.Meta.Commit(cts)
		if r.Intn(2) == 0 {
			rec.SetETS(cts) // the commit-phase stamping scan already ran
		}
	}

	if withInsert {
		commit(newWriter(undo.OpInsert, nil))
	}
	for i := 0; i < nUpdates; i++ {
		old := cur[0]
		cur = rel.Row{rel.Int(int64(i + 1)), cur[1]}
		commit(newWriter(undo.OpUpdate, []undo.ColVal{{Col: 0, Val: old}}))
	}
	last := newWriter(undo.OpDelete, nil)
	if !withDelete {
		// Replace the tentative delete with an update so the history ends
		// on a live version; rebuilding keeps the construction uniform.
		head = last.Prev
		old := cur[0]
		cur = rel.Row{rel.Int(99), cur[1]}
		last = newWriter(undo.OpUpdate, []undo.ColVal{{Col: 0, Val: old}})
	} else {
		deleted = true
	}
	// The head's writer: committed (stamped or not), still active,
	// preparing, or — rarely — already reclaimed out from under the chain
	// reference.
	switch r.Intn(5) {
	case 0, 1:
		commit(last)
	case 2:
		// still active: ets keeps the XID, meta stays StatusActive
	case 3:
		last.Meta.Prepare()
		last.Meta.SetCTS(tick())
	case 4:
		commit(last)
		last.MarkDead()
	}
	// Occasionally reclaim the oldest record: both paths must treat the
	// truncated tail identically.
	if r.Intn(4) == 0 {
		for c := head; c != nil; c = c.Prev {
			if c.Prev == nil && c != head {
				c.MarkDead()
			}
		}
	}

	snapshot := uint64(5) + uint64(r.Intn(int(ts)))
	xid := clock.MakeXID(tick())
	if head.Meta.Status() == undo.StatusActive && r.Intn(2) == 0 {
		xid = head.Meta.XID // reader is the head's own writer
	}
	watermark := uint64(r.Intn(int(snapshot) + 2))
	return chainScenario{head: head, current: cur, deleted: deleted,
		snapshot: snapshot, xid: xid, watermark: watermark, commitPrepared: r.Intn(2) == 0}
}

func TestReadVisibleAtMatchesReference(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			s := genChain(r)
			meta := s.head.Meta
			wantWait := !s.head.Reclaimed() && meta.Status() == undo.StatusPreparing && meta.CTS() <= s.snapshot
			waits := 0
			// The writer's flush ends while the reader waits on it.
			st := VisStats{Wait: func(m *undo.TxnMeta) bool {
				waits++
				if s.commitPrepared {
					m.Commit(m.CTS())
				} else {
					m.Abort()
				}
				m.Finish()
				return true
			}}
			owns := r.Intn(2) == 0
			fastIn := s.current.Clone()
			gotRow, gotOK := ReadVisibleAt(s.head, s.snapshot, s.xid, s.watermark,
				fastIn, s.deleted, owns, &st)
			if want := map[bool]int{true: 1}[wantWait]; waits != want {
				t.Logf("%d waits on a %d head (cts %d, snap=%d), want %d", waits, meta.Status(), meta.CTS(), s.snapshot, want)
				return false
			}
			// The reference reads on its own copy (ReadVisible clones
			// internally but returns the input row on the no-walk paths),
			// after the wait has settled the preparing writer.
			refIn := s.current.Clone()
			refRow, refOK := ReadVisible(s.head, s.snapshot, s.xid, refIn, s.deleted)

			if gotOK != refOK {
				t.Logf("verdict mismatch: got %v want %v (snap=%d wm=%d)", gotOK, refOK, s.snapshot, s.watermark)
				return false
			}
			if gotOK && !gotRow.Equal(refRow) {
				t.Logf("row mismatch: got %v want %v (snap=%d wm=%d)", gotRow, refRow, s.snapshot, s.watermark)
				return false
			}
			if !owns && !fastIn.Equal(s.current) {
				t.Logf("ownsCurrent=false mutated the caller's row: %v -> %v", s.current, fastIn)
				return false
			}
			if st.Fast > 0 && st.Walks > 0 {
				t.Logf("one read counted both fast (%d) and walk (%d)", st.Fast, st.Walks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The watermark fast path must actually fire once history is globally
// visible — the perf claim behind the counters, asserted so a regression
// that silently disables the fast path fails loudly.
func TestReadVisibleAtFastPathFires(t *testing.T) {
	arena := undo.NewArena(0)
	meta := undo.NewTxnMeta(clock.MakeXID(100))
	rec := arena.New(meta, 1, 7, undo.OpInsert, nil, nil)
	meta.Commit(101)
	rec.SetETS(101)

	row := rel.Row{rel.Int(1)}
	var st VisStats
	got, ok := ReadVisibleAt(rec, 200, clock.MakeXID(150), 150, row, false, true, &st)
	if !ok || !got.Equal(row) {
		t.Fatalf("visible read failed: %v %v", got, ok)
	}
	if st.Fast != 1 || st.Walks != 0 {
		t.Fatalf("fast path did not fire: %+v", st)
	}

	// Below the watermark margin the medium path (snapshot compare) serves
	// the read without counting a walk.
	st = VisStats{}
	if _, ok := ReadVisibleAt(rec, 200, clock.MakeXID(150), 90, row, false, true, &st); !ok {
		t.Fatal("medium path read failed")
	}
	if st.Fast != 0 || st.Walks != 0 {
		t.Fatalf("medium path miscounted: %+v", st)
	}
}
