package undo

import (
	"sync"
	"testing"
	"time"

	"phoebedb/internal/clock"
	"phoebedb/internal/rel"
)

func metaFor(ts uint64) *TxnMeta { return NewTxnMeta(clock.MakeXID(ts)) }

func TestTxnMetaLifecycle(t *testing.T) {
	m := metaFor(5)
	if m.Status() != StatusActive {
		t.Fatal("new meta not active")
	}
	select {
	case <-m.Done():
		t.Fatal("done closed before finish")
	default:
	}
	m.Commit(9)
	if m.Status() != StatusCommitted || m.CTS() != 9 {
		t.Fatalf("commit state = %v/%d", m.Status(), m.CTS())
	}
	m.Finish()
	select {
	case <-m.Done():
	default:
		t.Fatal("done not closed after finish")
	}
}

// TestTxnMetaDoneBeforeFinish: a waiter that arrives while the
// transaction runs makes the channel and is woken by Finish.
func TestTxnMetaDoneBeforeFinish(t *testing.T) {
	m := metaFor(5)
	ch := m.Done()
	if m.Done() != ch {
		t.Fatal("second waiter got a different channel")
	}
	woke := make(chan struct{})
	go func() {
		<-ch
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("waiter woke before Finish")
	case <-time.After(10 * time.Millisecond):
	}
	m.Finish()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("Finish did not wake the waiter")
	}
}

// TestTxnMetaDoneAfterFinish: a meta nobody waited on makes no channel,
// and a waiter that arrives after Finish gets a closed one.
func TestTxnMetaDoneAfterFinish(t *testing.T) {
	m := metaFor(5)
	m.Abort()
	m.Finish()
	if m.done != nil {
		t.Fatal("Finish made a channel nobody waits on")
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("Done after Finish is not closed")
	}
}

// TestTxnMetaDoneRace: Done and Finish race on each of 1,000 metas; every
// waiter wakes, whichever comes first.
func TestTxnMetaDoneRace(t *testing.T) {
	const metas = 1000
	var wg sync.WaitGroup
	for i := 0; i < metas; i++ {
		m := metaFor(uint64(i + 1))
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-m.Done()
		}()
		go func() {
			defer wg.Done()
			m.Finish()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a waiter was never woken")
	}
}

func TestRecordSTSFromPrev(t *testing.T) {
	a := NewArena(0)
	m1 := metaFor(1)
	r1 := a.New(m1, 1, 10, OpUpdate, nil, nil)
	if r1.STS() != 0 {
		t.Fatalf("first record sts = %d, want 0", r1.STS())
	}
	if r1.ETS() != m1.XID {
		t.Fatal("fresh record ets is not owner XID")
	}
	// Commit m1 at ts 6 and stamp (the Example 6.1 scenario: XID 4 commits
	// at 6, so the next record's sts is 6).
	m1.Commit(6)
	r1.SetETS(6)
	m2 := metaFor(7)
	r2 := a.New(m2, 1, 10, OpUpdate, nil, r1)
	if r2.STS() != 6 {
		t.Fatalf("sts = %d, want previous ets 6", r2.STS())
	}
	if r2.ETS() != m2.XID {
		t.Fatal("uncommitted ets should be XID")
	}
}

func TestRecordSTSZeroWhenPrevReclaimed(t *testing.T) {
	a := NewArena(0)
	m1 := metaFor(1)
	r1 := a.New(m1, 1, 10, OpUpdate, nil, nil)
	m1.Commit(2)
	r1.SetETS(2)
	a.Reclaim(100, nil)
	if !r1.Reclaimed() {
		t.Fatal("r1 not reclaimed")
	}
	m2 := metaFor(3)
	r2 := a.New(m2, 1, 10, OpUpdate, nil, r1)
	if r2.STS() != 0 {
		t.Fatalf("sts = %d, want 0 for reclaimed predecessor", r2.STS())
	}
}

func TestEffectiveETS(t *testing.T) {
	a := NewArena(0)
	m := metaFor(3)
	r := a.New(m, 1, 1, OpUpdate, nil, nil)
	if _, committed := r.EffectiveETS(); committed {
		t.Fatal("active record reported committed")
	}
	// Commit via meta only — no stamping scan yet. Visibility must already
	// see the commit timestamp (commit atomicity).
	m.Commit(8)
	ts, committed := r.EffectiveETS()
	if !committed || ts != 8 {
		t.Fatalf("effective ets = (%d,%v), want (8,true)", ts, committed)
	}
	// After stamping, the fast path returns the same.
	r.SetETS(8)
	ts, committed = r.EffectiveETS()
	if !committed || ts != 8 {
		t.Fatalf("stamped effective ets = (%d,%v)", ts, committed)
	}
}

func TestEffectiveETSAborted(t *testing.T) {
	a := NewArena(0)
	m := metaFor(3)
	r := a.New(m, 1, 1, OpUpdate, nil, nil)
	m.Abort()
	if _, committed := r.EffectiveETS(); committed {
		t.Fatal("aborted record reported committed")
	}
}

func TestArenaReclaimQueueOrder(t *testing.T) {
	a := NewArena(0)
	var recs []*Record
	// Three transactions committing at 2, 4, 6.
	for i, cts := range []uint64{2, 4, 6} {
		m := metaFor(uint64(i + 1))
		r := a.New(m, 1, rel.RowID(i), OpUpdate, nil, nil)
		m.Commit(cts)
		r.SetETS(cts)
		recs = append(recs, r)
	}
	if a.Live() != 3 {
		t.Fatalf("Live = %d", a.Live())
	}
	// Watermark 5: records with cts 2 and 4 go, 6 stays.
	var seen []rel.RowID
	n := a.Reclaim(5, func(r *Record) { seen = append(seen, r.RowID) })
	if n != 2 || len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("reclaimed %d (%v)", n, seen)
	}
	if !recs[0].Reclaimed() || !recs[1].Reclaimed() || recs[2].Reclaimed() {
		t.Fatal("reclaim flags wrong")
	}
	if a.LastReclaimedXID() != clock.MakeXID(2) {
		t.Fatalf("LastReclaimedXID = %x", a.LastReclaimedXID())
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d after reclaim", a.Live())
	}
}

// A reclaim callback may append to the arena it is reclaiming (it takes a
// page latch whose holder is inside New), sees its own record already
// invalid, and leaves the queue head — what the max-frozen-XID watermark
// reads — on the run until the callbacks are done.
func TestArenaReclaimCallbackRunsUnlocked(t *testing.T) {
	a := NewArena(0)
	var metas []*TxnMeta
	for i := 0; i < 3; i++ {
		m := metaFor(uint64(i + 1))
		r := a.New(m, 1, rel.RowID(i), OpDelete, nil, nil)
		m.Commit(uint64(i + 2))
		r.SetETS(uint64(i + 2))
		metas = append(metas, m)
	}
	late := metaFor(50)
	calls := 0
	n := a.Reclaim(10, func(r *Record) {
		calls++
		if !r.Reclaimed() {
			t.Errorf("record %d handed to the callback before floor moved", r.RowID)
		}
		if got := a.FirstUnreclaimedXID(); got != metas[0].XID {
			t.Errorf("FirstUnreclaimedXID = %x during the callbacks, want the run's first %x", got, metas[0].XID)
		}
		if got := a.LastReclaimedXID(); got != 0 {
			t.Errorf("LastReclaimedXID = %x before the callbacks returned", got)
		}
		a.New(late, 1, 100+r.RowID, OpInsert, nil, nil) // deadlocked when mu was held here
	})
	if n != 3 || calls != 3 {
		t.Fatalf("reclaimed %d with %d callbacks, want 3/3", n, calls)
	}
	if a.Live() != 3 || a.FirstUnreclaimedXID() != late.XID || a.LastReclaimedXID() != metas[2].XID {
		t.Fatalf("after reclaim: live %d, first %x, last %x", a.Live(), a.FirstUnreclaimedXID(), a.LastReclaimedXID())
	}
}

func TestArenaReclaimStopsAtActive(t *testing.T) {
	a := NewArena(0)
	mActive := metaFor(1)
	a.New(mActive, 1, 0, OpUpdate, nil, nil)
	mDone := metaFor(2)
	r2 := a.New(mDone, 1, 1, OpUpdate, nil, nil)
	mDone.Commit(3)
	r2.SetETS(3)
	// The active head record blocks the queue even though r2 qualifies.
	if n := a.Reclaim(100, nil); n != 0 {
		t.Fatalf("reclaimed %d past an active record", n)
	}
}

func TestArenaReclaimDeadRecords(t *testing.T) {
	a := NewArena(0)
	m := metaFor(1)
	r := a.New(m, 1, 0, OpUpdate, nil, nil)
	m.Abort()
	r.MarkDead()
	if n := a.Reclaim(0, nil); n != 1 {
		t.Fatalf("dead record not reclaimed: %d", n)
	}
}

func TestTwinTablePushPop(t *testing.T) {
	a := NewArena(0)
	tt := NewTwinTable()
	m1 := metaFor(1)
	r1 := a.New(m1, 1, 10, OpUpdate, nil, nil)
	tt.Push(10, r1)
	if tt.Head(10) != r1 {
		t.Fatal("head not r1")
	}
	if tt.MaxWriterXID != m1.XID {
		t.Fatal("MaxWriterXID not tracked")
	}
	m2 := metaFor(2)
	r2 := a.New(m2, 1, 10, OpUpdate, nil, tt.Head(10))
	tt.Push(10, r2)
	if tt.Head(10) != r2 || r2.Prev != r1 {
		t.Fatal("chain not linked newest-first")
	}
	// Rollback r2.
	if !tt.Pop(10, r2) {
		t.Fatal("pop failed")
	}
	if tt.Head(10) != r1 {
		t.Fatal("pop did not restore r1")
	}
	if tt.Pop(10, r2) {
		t.Fatal("pop of non-head succeeded")
	}
	// Popping the last record removes the entry.
	tt.Pop(10, r1)
	if tt.Len() != 0 {
		t.Fatalf("entries remain: %d", tt.Len())
	}
}

func TestTwinHeadReclaimedIsNil(t *testing.T) {
	a := NewArena(0)
	tt := NewTwinTable()
	m := metaFor(1)
	r := a.New(m, 1, 10, OpUpdate, nil, nil)
	tt.Push(10, r)
	m.Commit(2)
	r.SetETS(2)
	a.Reclaim(100, nil)
	if tt.Head(10) != nil {
		t.Fatal("reclaimed head still returned")
	}
}

func TestTwinCollectible(t *testing.T) {
	a := NewArena(0)
	tt := NewTwinTable()
	m := metaFor(5)
	r := a.New(m, 1, 10, OpUpdate, nil, nil)
	tt.Push(10, r)
	if tt.Collectible(clock.MakeXID(10)) {
		t.Fatal("collectible with live chain head")
	}
	m.Commit(6)
	r.SetETS(6)
	a.Reclaim(100, nil)
	if !tt.Collectible(clock.MakeXID(10)) {
		t.Fatal("not collectible after chain reclaimed")
	}
	if tt.Collectible(clock.MakeXID(2)) {
		t.Fatal("collectible despite MaxWriterXID above watermark")
	}
	// A held lock blocks collection.
	tt.Entry(10, true).LockState = -1
	if tt.Collectible(clock.MakeXID(10)) {
		t.Fatal("collectible with held tuple lock")
	}
}

// TestTwinTableReset: Reset empties a table in place and its entries come
// back, cleared, for the next writes.
func TestTwinTableReset(t *testing.T) {
	a := NewArena(0)
	tt := NewTwinTable()
	m := metaFor(3)
	for rid := rel.RowID(1); rid <= 3; rid++ {
		tt.Push(rid, a.New(m, 1, rid, OpUpdate, nil, nil))
	}
	old := tt.Entry(2, false)
	old.LockOwnerXID = 7
	tt.Pop(3, tt.Head(3)) // a rollback recycles its entry too
	if tt.Peak() != 3 || tt.Len() != 2 {
		t.Fatalf("peak %d, len %d, want 3 and 2", tt.Peak(), tt.Len())
	}
	tt.Reset()
	if tt.Len() != 0 || tt.Peak() != 0 || tt.MaxWriterXID != 0 || tt.Head(1) != nil {
		t.Fatal("Reset left state behind")
	}
	seen := map[*TwinEntry]bool{}
	for rid := rel.RowID(10); rid < 13; rid++ {
		e := tt.Entry(rid, true)
		if e.Head != nil || e.LockState != 0 || e.LockOwnerXID != 0 || e.waiters != nil {
			t.Fatalf("recycled entry not cleared: %+v", *e)
		}
		seen[e] = true
	}
	if !seen[old] {
		t.Fatal("entries not reused after Reset")
	}
	if len(seen) != 3 || tt.Len() != 3 {
		t.Fatal("reused entries alias each other")
	}
	var nilTable *TwinTable
	if nilTable.Len() != 0 {
		t.Fatal("nil table has entries")
	}
}

func TestTwinWaiters(t *testing.T) {
	tt := NewTwinTable()
	e := tt.Entry(1, true)
	ch1 := e.AddWaiter()
	ch2 := e.AddWaiter()
	select {
	case <-ch1:
		t.Fatal("waiter woken early")
	default:
	}
	e.WakeWaiters()
	<-ch1
	<-ch2
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpUpdate.String() != "update" || OpDelete.String() != "delete" {
		t.Fatal("op names wrong")
	}
}
