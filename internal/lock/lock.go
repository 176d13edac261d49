// Package lock implements PhoebeDB's decentralized lock management (§7.2).
//
// There is no global lock hash table (the contention hotspot the paper
// calls out in MySQL/PostgreSQL). Instead each lock lives with the object
// it protects:
//
//   - Table locks hang off the table object itself (the paper stores them
//     in a memory block referenced from the B-Tree root node): a
//     multi-granularity lock with intention modes.
//   - Transaction-ID locks are the transaction's own TxnMeta: a
//     transaction implicitly holds the exclusive lock on its ID from start
//     to finish, and "acquiring a shared lock on B's ID" is waiting on B's
//     TxnMeta.Done channel, which the engine does in core's Tx.park — all
//     waiters wake together when B finishes, exactly the semantics of
//     §7.2's remark.
//   - Tuple locks live in twin table entries and are mutated under the
//     owning page's latch; this package provides the state transitions.
package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/undo"
)

// ErrLockTimeout reports that a lock wait exceeded its bound; the caller
// is expected to abort its transaction (timeout-based deadlock recovery).
var ErrLockTimeout = errors.New("lock: wait timed out (possible deadlock)")

// --- Tuple locks ----------------------------------------------------------------

// TryLockTuple attempts to acquire the tuple lock recorded in a twin table
// entry. The caller must hold the owning page's latch. State: 0 free, -1
// exclusive, >0 shared count.
func TryLockTuple(e *undo.TwinEntry, exclusive bool, xid uint64) bool {
	if exclusive {
		if e.LockState != 0 {
			return false
		}
		e.LockState = -1
		e.LockOwnerXID = xid
		return true
	}
	if e.LockState < 0 {
		return false
	}
	e.LockState++
	return true
}

// UnlockTuple releases a tuple lock and wakes waiters. The caller must hold
// the owning page's latch.
func UnlockTuple(e *undo.TwinEntry, exclusive bool) {
	if exclusive {
		e.LockState = 0
		e.LockOwnerXID = 0
	} else {
		e.LockState--
	}
	if e.LockState == 0 {
		e.WakeWaiters()
	}
}

// --- Table locks ----------------------------------------------------------------

// Mode is a multi-granularity table lock mode.
type Mode int

const (
	// ModeIS is intention-shared: the transaction will read tuples.
	ModeIS Mode = iota
	// ModeIX is intention-exclusive: the transaction will write tuples.
	ModeIX
	// ModeS locks the whole table for reading (stable scans).
	ModeS
	// ModeX locks the whole table exclusively (DDL).
	ModeX
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIS:
		return "IS"
	case ModeIX:
		return "IX"
	case ModeS:
		return "S"
	case ModeX:
		return "X"
	default:
		return "?"
	}
}

// compatible is the standard multi-granularity compatibility matrix.
var compatible = [numModes][numModes]bool{
	ModeIS: {ModeIS: true, ModeIX: true, ModeS: true, ModeX: false},
	ModeIX: {ModeIS: true, ModeIX: true, ModeS: false, ModeX: false},
	ModeS:  {ModeIS: true, ModeIX: false, ModeS: true, ModeX: false},
	ModeX:  {ModeIS: false, ModeIX: false, ModeS: false, ModeX: false},
}

// Stats aggregates wait/timeout counts across lock blocks. Locks stay
// decentralized (§7.2) — the shared counter block is touched only on the
// slow path, when a waiter actually blocks.
type Stats struct {
	Waits    atomic.Int64
	Timeouts atomic.Int64
	// SpuriousWakeups counts waiters signaled as grantable that found the
	// lock incompatible again on wake (a new grant barged in between the
	// release and the waiter running) and had to re-wait.
	SpuriousWakeups atomic.Int64
}

// waiter is one blocked Lock call, queued FIFO. ch is buffered so a
// release can signal it without blocking and without the waiter being
// parked yet.
type waiter struct {
	mode Mode
	ch   chan struct{}
}

// TableLock is the per-table lock block. The zero value is an unlocked
// table lock.
//
// Releases wake only the longest FIFO prefix of waiters whose modes are
// simultaneously grantable — not every waiter — so a herd of incompatible
// waiters no longer stampedes onto l.mu after each Unlock just to re-queue.
type TableLock struct {
	mu      sync.Mutex
	granted [numModes]int
	waiters []*waiter

	// Stats, when non-nil, receives wait and timeout counts; typically one
	// Stats block is shared by every table lock of an engine.
	Stats *Stats
}

func (l *TableLock) compatibleWith(m Mode) bool {
	for g := Mode(0); g < numModes; g++ {
		if l.granted[g] > 0 && !compatible[g][m] {
			return false
		}
	}
	return true
}

// TryLock attempts to acquire mode m without waiting.
func (l *TableLock) TryLock(m Mode) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.compatibleWith(m) {
		return false
	}
	l.granted[m]++
	return true
}

// Lock acquires mode m, waiting up to timeout (0 = forever). A compatible
// request is granted immediately even while incompatible waiters queue —
// lock upgrades (IS held, IX wanted) must be able to barge past a queued X
// or the upgrade deadlocks against it.
func (l *TableLock) Lock(m Mode, timeout time.Duration) error {
	l.mu.Lock()
	if l.compatibleWith(m) {
		l.granted[m]++
		l.mu.Unlock()
		return nil
	}
	w := &waiter{mode: m, ch: make(chan struct{}, 1)}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	if l.Stats != nil {
		l.Stats.Waits.Add(1)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if timeout <= 0 {
			<-w.ch
		} else {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return l.abandonWait(w)
			}
			t := time.NewTimer(remaining)
			select {
			case <-w.ch:
				t.Stop()
			case <-t.C:
				return l.abandonWait(w)
			}
		}
		// Signaled as grantable; re-check, since a fresh grant may have
		// barged in before this goroutine ran.
		l.mu.Lock()
		if l.compatibleWith(m) {
			l.granted[m]++
			l.removeWaiterLocked(w)
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
		if l.Stats != nil {
			l.Stats.SpuriousWakeups.Add(1)
		}
	}
}

// abandonWait withdraws a timed-out waiter. A signal that raced with the
// timeout is passed on so the release it represents is not lost on us.
func (l *TableLock) abandonWait(w *waiter) error {
	l.mu.Lock()
	l.removeWaiterLocked(w)
	select {
	case <-w.ch:
		l.wakeLocked()
	default:
	}
	l.mu.Unlock()
	if l.Stats != nil {
		l.Stats.Timeouts.Add(1)
	}
	return ErrLockTimeout
}

func (l *TableLock) removeWaiterLocked(w *waiter) {
	for i, o := range l.waiters {
		if o == w {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

// wakeLocked signals the longest FIFO prefix of waiters that could all be
// granted together against the current grant table. Stopping at the first
// incompatible waiter keeps an X waiter from starving behind a stream of
// intention locks.
func (l *TableLock) wakeLocked() {
	sim := l.granted
	for _, w := range l.waiters {
		ok := true
		for g := Mode(0); g < numModes; g++ {
			if sim[g] > 0 && !compatible[g][w.mode] {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		sim[w.mode]++
		select {
		case w.ch <- struct{}{}:
		default: // already signaled
		}
	}
}

// Unlock releases one grant of mode m and wakes now-grantable waiters.
func (l *TableLock) Unlock(m Mode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.granted[m] <= 0 {
		panic("lock: unlock of unheld table lock mode " + m.String())
	}
	l.granted[m]--
	if len(l.waiters) > 0 {
		l.wakeLocked()
	}
}

// Granted returns the number of grants held in mode m (diagnostics).
func (l *TableLock) Granted(m Mode) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.granted[m]
}
