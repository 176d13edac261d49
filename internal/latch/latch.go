// Package latch implements the hybrid synchronization primitive PhoebeDB
// uses on B-Tree nodes (§7.2): an optimistic version latch supporting three
// modes — optimistic (lock-free validated reads), shared, and exclusive —
// plus the Optimistic Lock Coupling traversal pattern.
//
// The latch packs a version counter and a lock state into one 64-bit word:
//
//	bits 16..63  version counter (incremented on every exclusive unlock)
//	bits  0..15  state: 0 = free, stateExclusive = writer, else reader count
//
// Optimistic readers sample the version, read the protected data without
// acquiring anything, and validate that the version is unchanged and no
// writer is active. Writers take exclusive mode and bump the version on
// release, invalidating concurrent optimistic readers. Shared mode is used
// on leaf nodes by the hybrid lock strategy to cap abort rates under
// write-intensive workloads.
package latch

import (
	"runtime"
	"sync/atomic"
)

const (
	stateMask      uint64 = 0xFFFF
	stateExclusive uint64 = 0xFFFF
	maxShared      uint64 = 0xFFFE
	versionShift          = 16
)

// ErrRestart is reported by Validate-style helpers through a false return;
// the package has no error values — callers restart traversals on failed
// validation, as OLC prescribes.

// Latch is an optimistic version latch. The zero value is an unlocked latch
// with version 0.
type Latch struct {
	word atomic.Uint64
}

// Version is an opaque token captured by an optimistic reader.
type Version uint64

// backoff is a cooperative spin pause. Kept small: latch holds are short.
func backoff(spins int) {
	if spins < 8 {
		return
	}
	runtime.Gosched()
}

// OptimisticRead samples the latch for an optimistic read. It spins while a
// writer holds the latch, then returns the version token to validate
// against. The second result is false only if the caller-provided spin
// budget is exhausted (budget <= 0 means spin forever).
func (l *Latch) OptimisticRead(budget int) (Version, bool) {
	spins := 0
	for {
		w := l.word.Load()
		if w&stateMask != stateExclusive {
			return Version(w &^ stateMask), true
		}
		spins++
		if budget > 0 && spins >= budget {
			return 0, false
		}
		backoff(spins)
	}
}

// Validate reports whether the protected data may have changed since v was
// captured: true means the read is consistent.
func (l *Latch) Validate(v Version) bool {
	w := l.word.Load()
	if w&stateMask == stateExclusive {
		return false
	}
	return Version(w&^stateMask) == v
}

// TryLockExclusive attempts to take the latch in exclusive mode without
// spinning. It fails if any reader or writer is present.
func (l *Latch) TryLockExclusive() bool {
	w := l.word.Load()
	if w&stateMask != 0 {
		return false
	}
	return l.word.CompareAndSwap(w, w|stateExclusive)
}

// LockExclusive acquires the latch in exclusive mode, spinning as needed.
// yield, if non-nil, is invoked periodically so a co-routine scheduler can
// deschedule the task (a high-urgency yield in §7.1's terms).
func (l *Latch) LockExclusive(yield func()) {
	spins := 0
	for !l.TryLockExclusive() {
		spins++
		if yield != nil && spins%64 == 0 {
			yield()
		} else {
			backoff(spins)
		}
	}
}

// UnlockExclusive releases exclusive mode and increments the version,
// invalidating optimistic readers that overlapped the write.
func (l *Latch) UnlockExclusive() {
	w := l.word.Load()
	l.word.Store((w &^ stateMask) + (1 << versionShift))
}

// UpgradeToExclusive converts a validated optimistic read into an exclusive
// lock iff the version is still v and no readers are present.
func (l *Latch) UpgradeToExclusive(v Version) bool {
	return l.word.CompareAndSwap(uint64(v), uint64(v)|stateExclusive)
}

// TryLockShared attempts to add a shared holder. It fails if a writer is
// active or the reader count is saturated.
func (l *Latch) TryLockShared() bool {
	for {
		w := l.word.Load()
		s := w & stateMask
		if s == stateExclusive || s >= maxShared {
			return false
		}
		if l.word.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// LockShared acquires shared mode, spinning as needed. yield semantics
// match LockExclusive.
func (l *Latch) LockShared(yield func()) {
	spins := 0
	for !l.TryLockShared() {
		spins++
		if yield != nil && spins%64 == 0 {
			yield()
		} else {
			backoff(spins)
		}
	}
}

// UnlockShared drops one shared holder. Shared release does not bump the
// version: readers do not invalidate other readers.
func (l *Latch) UnlockShared() {
	l.word.Add(^uint64(0)) // -1
}

// SharedCount returns the current number of shared holders (0 if a writer
// holds the latch).
func (l *Latch) SharedCount() int {
	s := l.word.Load() & stateMask
	if s == stateExclusive {
		return 0
	}
	return int(s)
}
