// Package waitevent is the kernel's wait-event taxonomy: a tiny,
// dependency-free API the blocking sites stamp so that samplers and
// per-statement accounting can tell *what* a slot is waiting on, not just
// that it is off-CPU.
//
// Each task slot owns one cache-line-padded cell holding
//
//   - the current wait event in a single atomic word (read by the
//     active-session-history sampler at ~10ms),
//   - the current statement ID in a second atomic word (interned by the
//     per-statement aggregator; 0 = none), and
//   - per-event cumulative counts and nanoseconds (read by Prometheus
//     totals and differenced for per-statement wait breakdowns).
//
// Only the owning slot writes its cell, so every store is uncontended; a
// stamp is two atomic stores plus two time.Now calls. All methods are
// no-ops on a nil *Slots, so subsystems constructed without observability
// (unit tests, tools opening a bare engine) pay a single predictable branch.
package waitevent

import (
	"sync/atomic"
	"time"
)

// Event identifies one class of off-CPU wait.
type Event int32

const (
	// EvNone means the slot is on-CPU (or idle).
	EvNone Event = iota
	// EvTableLock is a table-lock acquisition wait.
	EvTableLock
	// EvTupleLock is a tuple-lock (row conflict) wait.
	EvTupleLock
	// EvBufferIO is a buffer-pool miss reading a page from disk.
	EvBufferIO
	// EvWALFlush is WAL flush work: device write/fsync, or waiting as a
	// group-commit follower for the leader's flush to cover us.
	EvWALFlush
	// EvWALGroupLead is the group-commit leader's adaptive wait window,
	// deliberately idling so followers can join the flush.
	EvWALGroupLead
	// EvSchedYield is a low-urgency scheduler park (the slot gave its
	// worker away while waiting for a wakeup).
	EvSchedYield
	// EvServer is server front-end time: a statement's admission-queue
	// wait before it reached a task slot, or an in-transaction session
	// parked on its slot waiting for the client's next pipelined frame.
	EvServer
	// EvCommitDep is a reader parked on a writer whose commit timestamp is
	// at or below its snapshot while the writer's commit record is flushed.
	EvCommitDep

	// NumEvents is the number of distinct events, including EvNone.
	NumEvents = int(EvCommitDep) + 1
)

var names = [NumEvents]string{
	EvNone:         "none",
	EvTableLock:    "table_lock",
	EvTupleLock:    "tuple_lock",
	EvBufferIO:     "buffer_io",
	EvWALFlush:     "wal_flush",
	EvWALGroupLead: "wal_group_lead",
	EvSchedYield:   "sched_yield",
	EvServer:       "server",
	EvCommitDep:    "commit_dep",
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return "event?"
	}
	return names[e]
}

// cell is one slot's wait state. The fixed part (current event, current
// statement) shares the first cache line; the cumulative arrays are
// written only on event completion, far less often than they are read.
type cell struct {
	current atomic.Int32  // Event
	stmt    atomic.Uint64 // statement ID, 0 = none
	_       [48]byte      // pad the hot words to their own line
	count   [NumEvents]atomic.Int64
	nanos   [NumEvents]atomic.Int64
	// Round the cell up to whole cache lines, so one slot's totals never
	// share a line with the next slot's hot words.
	_ [(64 - NumEvents*16%64) % 64]byte
}

// Slots is the per-slot wait-event state for a whole engine.
type Slots struct {
	cells []cell
}

// New returns wait-event state for n slots.
func New(n int) *Slots {
	return &Slots{cells: make([]cell, n)}
}

// NumSlots returns the slot count (0 for nil).
func (s *Slots) NumSlots() int {
	if s == nil {
		return 0
	}
	return len(s.cells)
}

// Begin marks slot as waiting on e and returns the wait's start time.
// Callers pass the returned time to End.
func (s *Slots) Begin(slot int, e Event) time.Time {
	if s == nil {
		return time.Time{}
	}
	s.cells[slot].current.Store(int32(e))
	return time.Now()
}

// Set publishes the slot's current event without timing it — for sites
// too hot to pay two clock reads (high-urgency scheduler yields). The
// ASH sampler still observes the event; cumulative time is not charged.
func (s *Slots) Set(slot int, e Event) {
	if s == nil {
		return
	}
	s.cells[slot].current.Store(int32(e))
}

// End clears the slot's current event and charges the elapsed time to e.
func (s *Slots) End(slot int, e Event, start time.Time) {
	if s == nil {
		return
	}
	c := &s.cells[slot]
	c.current.Store(int32(EvNone))
	c.count[e].Add(1)
	c.nanos[e].Add(int64(time.Since(start)))
}

// Switch charges the time since start to from, restamps the slot as
// waiting on to, and returns the new segment's start time. Used when one
// blocking site transitions between wait classes (WAL follower wait →
// leader window) without going back on-CPU.
func (s *Slots) Switch(slot int, from, to Event, start time.Time) time.Time {
	if s == nil {
		return time.Time{}
	}
	c := &s.cells[slot]
	now := time.Now()
	c.count[from].Add(1)
	c.nanos[from].Add(int64(now.Sub(start)))
	c.current.Store(int32(to))
	return now
}

// Charge attributes an externally measured, already-completed wait to the
// slot — for waits that happen before the task owns the slot (a server
// admission-queue wait is measured by the front end and charged here once
// the statement starts running). Call only from the slot's owning task so
// the single-writer discipline of the cumulative arrays holds.
func (s *Slots) Charge(slot int, e Event, d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	c := &s.cells[slot]
	c.count[e].Add(1)
	c.nanos[e].Add(int64(d))
}

// Current returns the slot's current wait event (EvNone when on-CPU).
func (s *Slots) Current(slot int) Event {
	if s == nil {
		return EvNone
	}
	return Event(s.cells[slot].current.Load())
}

// SetStmt publishes the statement ID the slot is executing (0 = none).
func (s *Slots) SetStmt(slot int, id uint64) {
	if s == nil {
		return
	}
	s.cells[slot].stmt.Store(id)
}

// Stmt returns the slot's current statement ID (0 = none).
func (s *Slots) Stmt(slot int) uint64 {
	if s == nil {
		return 0
	}
	return s.cells[slot].stmt.Load()
}

// Snapshot is a point-in-time copy of one slot's cumulative wait totals,
// differenced by the per-statement aggregator around each statement.
type Snapshot struct {
	Count [NumEvents]int64
	Nanos [NumEvents]int64
}

// SlotSnapshot reads one slot's cumulative totals. Each word is loaded
// once; a concurrent stamp lands in this snapshot or the next.
func (s *Slots) SlotSnapshot(slot int, out *Snapshot) {
	if s == nil {
		*out = Snapshot{}
		return
	}
	c := &s.cells[slot]
	for e := 0; e < NumEvents; e++ {
		out.Count[e] = c.count[e].Load()
		out.Nanos[e] = c.nanos[e].Load()
	}
}

// Totals sums counts and nanos across all slots, per event — the
// engine-wide Prometheus view.
func (s *Slots) Totals() (count, nanos [NumEvents]int64) {
	if s == nil {
		return
	}
	for i := range s.cells {
		c := &s.cells[i]
		for e := 0; e < NumEvents; e++ {
			count[e] += c.count[e].Load()
			nanos[e] += c.nanos[e].Load()
		}
	}
	return
}
