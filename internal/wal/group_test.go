package wal

import (
	"sync"
	"testing"
	"time"

	"phoebedb/internal/fault"
)

// TestGroupFlushDrainsAllMembers: one member's commit flush must make every
// member's committed records durable in a single device write, and leave a
// member's open records, those past its commit point, buffered.
func TestGroupFlushDrainsAllMembers(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if logs, _ := logFiles(dir); len(logs) != 1 || m.NumWriters() != 4 {
		t.Fatalf("log files=%v writers=%d, want one file for four writers", logs, m.NumWriters())
	}
	for i := 0; i < 4; i++ {
		commitOn(m.Writer(i), uint64(i+1))
	}
	w1 := m.Writer(1)
	open := Record{Type: RecInsert, GSN: w1.NextGSN(0), XID: 9}
	w1.Append(&open) // writer 1's next transaction, still running
	// Writer 0 commits; the leader flush must carry writers 1-3 too.
	if err := m.Writer(0).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Flushes(); got != 1 {
		t.Fatalf("group flush hit the device %d times, want 1", got)
	}
	for i := 0; i < 4; i++ {
		if m.Writer(i).pending() {
			t.Fatalf("writer %d still buffers committed records after the group flush", i)
		}
	}
	if !w1.open.Load() {
		t.Fatal("the group flush took writer 1's open record")
	}
	// A follower arriving after the leader has nothing left to write.
	if err := m.Writer(2).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Flushes(); got != 1 {
		t.Fatalf("already-durable follower flush hit the device (flushes=%d)", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("recovered %d records, want the 8 committed ones", len(recs))
	}
	for _, r := range recs {
		if r.XID == open.XID {
			t.Fatalf("the log holds the open transaction's record %+v", r)
		}
	}
}

// TestGroupFlushKeepsMidFlightAppends: a member's open records stay in its
// buffer through another member's flush (trim-by-prefix, up to the commit
// point) and reach the log with their own commit, in order.
func TestGroupFlushKeepsMidFlightAppends(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := m.Writer(0), m.Writer(1)
	ra := Record{Type: RecInsert, GSN: w1.NextGSN(0), XID: 2, RowID: 1}
	w1.Append(&ra)
	commitOn(w0, 1)
	if err := w0.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := logGSNs(t, m); len(got) != 2 || !w1.open.Load() || w1.pending() {
		t.Fatalf("after w0's flush the log holds GSNs %v, w1 open = %v; want w0's two records and w1's record buffered",
			got, w1.open.Load())
	}
	rb := Record{Type: RecInsert, GSN: w1.NextGSN(0), XID: 2, RowID: 2}
	w1.Append(&rb)
	c := Record{Type: RecCommit, GSN: w1.NextGSN(0), XID: 2}
	w1.Append(&c)
	if !w1.pending() {
		t.Fatal("committed records are not pending")
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rows []uint64
	for _, r := range recs {
		if r.XID == 2 && r.Type == RecInsert {
			rows = append(rows, r.RowID)
		}
	}
	if len(recs) != 5 || len(rows) != 2 || rows[0] != 1 || rows[1] != 2 || recs[4].Type != RecCommit {
		t.Fatalf("recovered %v", recs)
	}
}

// TestDiscardDropsOpenTail: a rollback's Discard drops the records past the
// commit point and nothing before it; the records never reach the log.
func TestDiscardDropsOpenTail(t *testing.T) {
	m := openTestManager(t, 1)
	w := m.Writer(0)
	commitOn(w, 1)
	open := Record{Type: RecInsert, GSN: w.NextGSN(0), XID: 2}
	w.Append(&open)
	w.Discard()
	if w.open.Load() || !w.pending() {
		t.Fatalf("after Discard open = %v, pending = %v; want the commit kept and no open record", w.open.Load(), w.pending())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Append(&open)
	w.Discard()
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := logGSNs(t, m); len(got) != 2 {
		t.Fatalf("log holds GSNs %v, want only the committed transaction's two", got)
	}
	w.mu.Lock()
	n := len(w.buf)
	w.mu.Unlock()
	if n != 0 {
		t.Fatalf("writer buffers %d bytes after the discard and flush", n)
	}
}

// TestGroupConcurrentCommitRace hammers one group from four writer
// goroutines (append + flush each iteration, as commits do) and verifies
// nothing is lost, duplicated, or reordered per writer.
func TestGroupConcurrentCommitRace(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Writers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 200
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := m.Writer(s)
			for i := 0; i < perWriter; i++ {
				rec := Record{Type: RecCommit, GSN: w.NextGSN(0), XID: uint64(s), RowID: uint64(i)}
				w.Append(&rec)
				if err := w.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4*perWriter {
		t.Fatalf("recovered %d records, want %d", len(recs), 4*perWriter)
	}
	// Per writer: every RowID exactly once, in order (stable GSN merge must
	// preserve each slot's append order).
	var next [4]uint64
	for _, r := range recs {
		s := r.XID
		if r.RowID != next[s] {
			t.Fatalf("writer %d records out of order: got rowid %d, want %d", s, r.RowID, next[s])
		}
		next[s]++
	}
	for s, n := range next {
		if n != perWriter {
			t.Fatalf("writer %d recovered %d records", s, n)
		}
	}
}

// commitOn appends one insert and its commit record on w and returns the
// commit's GSN — what a transaction does before calling Flush.
func commitOn(w *Writer, xid uint64) uint64 {
	ins := Record{Type: RecInsert, GSN: w.NextGSN(0), XID: xid}
	w.Append(&ins)
	c := Record{Type: RecCommit, GSN: w.NextGSN(0), XID: xid}
	w.Append(&c)
	return c.GSN
}

// awaitLeader blocks until a commit leader is parked in m's wait window.
func awaitLeader(t *testing.T, m *Manager) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		m.mu.Lock()
		leading := m.leading
		m.mu.Unlock()
		if leading {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader entered the group-commit wait")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// openWindow opens n writers and hands the group the moving averages a
// workload would have built: f for a flush's device time (F) and g for the
// gap to the next commit (G). A leader parks when g < f, for at most f.
func openWindow(t *testing.T, n int, f, g time.Duration) *Manager {
	t.Helper()
	m, err := Open(Options{Dir: t.TempDir(), Writers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	m.fsync.Store(int64(f))
	m.gap.Store(int64(g))
	return m
}

// TestFollowerJoinsParkedLeader: a committer arriving while a leader is
// parked joins it, ends the 200ms window at once because the batch is
// complete, and both return at the one flush that covers them.
func TestFollowerJoinsParkedLeader(t *testing.T) {
	m := openWindow(t, 3, 200*time.Millisecond, 0)

	start := time.Now()
	leaderDone := make(chan error, 1)
	go func() {
		commitOn(m.Writer(0), 1)
		leaderDone <- m.Writer(0).Flush()
	}()
	awaitLeader(t, m)
	gsn := commitOn(m.Writer(1), 2)
	if err := m.Writer(1).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := logGSNs(t, m); len(got) == 0 || got[len(got)-1] < gsn {
		t.Fatalf("follower returned with its commit GSN %d not in the log %v", gsn, got)
	}
	if got := m.Flushes(); got != 1 {
		t.Fatalf("follower returned after %d flushes, want exactly the leader's 1", got)
	}
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("two concurrent commits took %v against a 200ms window", el)
	}
	if w, e := m.GroupWaits(), m.GroupLeadEarly(); w != 1 || e != 1 {
		t.Fatalf("group waits = %d, ended early = %d; want 1 and 1 (the follower must not open its own window)", w, e)
	}
}

// TestLeaderWaitsForOpenTransaction: while a joiner is expected within a
// flush, a joiner does not end the window while a third member is
// mid-transaction; that member's commit does, and one flush retires all
// three.
func TestLeaderWaitsForOpenTransaction(t *testing.T) {
	m := openWindow(t, 3, 5*time.Second, 0)

	w2 := m.Writer(2)
	mid := Record{Type: RecInsert, GSN: w2.NextGSN(0), XID: 3}
	w2.Append(&mid) // slot 2 is mid-transaction

	done := make(chan error, 2)
	go func() {
		commitOn(m.Writer(0), 1)
		done <- m.Writer(0).Flush()
	}()
	awaitLeader(t, m)
	go func() {
		commitOn(m.Writer(1), 2)
		done <- m.Writer(1).Flush()
	}()
	select {
	case err := <-done:
		t.Fatalf("a commit returned (%v) while a member was still mid-transaction", err)
	case <-time.After(20 * time.Millisecond):
	}
	c := Record{Type: RecCommit, GSN: w2.NextGSN(0), XID: 3}
	w2.Append(&c)
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if f, w := m.Flushes(), m.GroupWaits(); f != 1 || w != 1 {
		t.Fatalf("flushes = %d, group waits = %d; want one flush under one window", f, w)
	}
}

// TestUnexpectedPeerDoesNotHoldLeader is the tpcc case: another slot is
// mid-transaction, but commits arrive further apart than a flush takes
// (G > F), so the leader flushes at once instead of parking for it.
func TestUnexpectedPeerDoesNotHoldLeader(t *testing.T) {
	m := openWindow(t, 2, time.Second, 2*time.Second)
	mid := Record{Type: RecInsert, GSN: m.Writer(1).NextGSN(0), XID: 2}
	m.Writer(1).Append(&mid)

	start := time.Now()
	commitOn(m.Writer(0), 1)
	if err := m.Writer(0).Flush(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("commit took %v waiting for a peer not expected within a flush", el)
	}
	if w, f := m.GroupWaits(), m.Flushes(); w != 0 || f != 1 {
		t.Fatalf("group waits = %d, flushes = %d; want no wait and one flush", w, f)
	}
}

// TestLeaderWindowIsOneFlush: a leader that expects a joiner who never
// comes parks for F and no longer. The timer may fire late (see
// internal/park), so the bound carries slack, far below the window a fixed
// wait would have left.
func TestLeaderWindowIsOneFlush(t *testing.T) {
	const f = 30 * time.Millisecond
	m := openWindow(t, 2, f, 0)
	mid := Record{Type: RecInsert, GSN: m.Writer(1).NextGSN(0), XID: 2}
	m.Writer(1).Append(&mid) // never commits: nothing pokes the leader

	start := time.Now()
	commitOn(m.Writer(0), 1)
	if err := m.Writer(0).Flush(); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if el < f || el > f+250*time.Millisecond {
		t.Fatalf("leader window lasted %v, want about F = %v", el, f)
	}
	if w, e := m.GroupWaits(), m.GroupLeadEarly(); w != 1 || e != 0 {
		t.Fatalf("group waits = %d, ended early = %d; want one wait that ran to F", w, e)
	}
}

// TestLockStepPeersShareFlushes is the point_update case: two writers
// commit in lock step on a slow device (a 2ms sleep before each sync), so
// each one's commit arrives within a flush of the other's and one flush
// retires both.
func TestLockStepPeersShareFlushes(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.WALPreSync, "sleep(2ms)"); err != nil {
		t.Fatal(err)
	}
	m := openWindow(t, 2, 2*time.Millisecond, 0)
	const rounds = 40
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				commitOn(m.Writer(s), uint64(2*i+s+1))
				if err := m.Writer(s).Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	ratio := float64(m.Flushes()) / (2 * rounds)
	f, g := m.Window()
	t.Logf("%.2f flushes per commit, F = %v, G = %v, %d waits, %d ended early",
		ratio, f, g, m.GroupWaits(), m.GroupLeadEarly())
	if ratio > 0.6 {
		t.Fatalf("%.2f flushes per commit: lock-step peers did not share flushes", ratio)
	}
	if g >= f {
		t.Fatalf("G = %v is not below F = %v for lock-step peers", g, f)
	}
}

// TestParkedLeaderWokenByForeignFlush: a flush from elsewhere (a checkpoint,
// a catalog record) that covers a parked leader ends its window.
func TestParkedLeaderWokenByForeignFlush(t *testing.T) {
	m := openWindow(t, 2, 5*time.Second, 0)
	done := make(chan error, 1)
	go func() {
		commitOn(m.Writer(0), 1)
		done <- m.Writer(0).Flush()
	}()
	awaitLeader(t, m)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("leader stayed parked after a flush covered it")
	}
	if got := m.Flushes(); got != 1 {
		t.Fatalf("covered leader flushed again (flushes = %d)", got)
	}
}

// TestSerialCommitsNeverPark: a lone committer's next commit arrives only
// after its previous flush, so G stays above F and no leader parks, even
// on a slow device (a 1ms sleep before each sync). A last Flush with
// nothing pending folds the last commit's gap, so G and F average the same
// number of samples: each gap exceeds its flush, and G starts at one
// second, so G > F holds however long one flush overshoots.
func TestSerialCommitsNeverPark(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.WALPreSync, "sleep(1ms)"); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: t.TempDir(), Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const commits = 64
	for i := 0; i < commits; i++ {
		w := m.Writer(i % 2) // the slot a pool hands a serial client varies
		commitOn(w, uint64(i+1))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Writer(0).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.GroupWaits(); got != 0 {
		t.Fatalf("%d serial commits paid %d leader waits, want none", commits, got)
	}
	if f, g := m.Window(); g <= f {
		t.Fatalf("G = %v is not above F = %v for a serial stream", g, f)
	}
}
