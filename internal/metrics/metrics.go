// Package metrics provides the measurement substrate for the evaluation
// harness and the always-on observability layer: per-component time
// accounting (the Go stand-in for the paper's per-transaction instruction
// counts, Exp 7), byte-level I/O counters (Exp 3 and 4), log-bucketed
// latency histograms, the slow-transaction log, and a registry that exposes
// all of it live.
//
// Component accounting is slot-local: each task slot owns a SlotMetrics that
// only the owning slot mutates, mirroring PhoebeDB's principle of
// partitioning bookkeeping by worker to avoid shared-cache contention
// (§7.1). Counters are atomic so scrapers can read them mid-run, but since
// writes are single-owner the atomics stay core-local and uncontended.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Component identifies a kernel subsystem whose cost is accounted
// separately, matching the categories of Figure 12.
type Component int

const (
	// CompCompute is effective computation: the transaction logic itself.
	CompCompute Component = iota
	// CompWAL is write-ahead logging work (record construction).
	CompWAL
	// CompMVCC is version-chain maintenance and visibility checks.
	CompMVCC
	// CompLatch is B-Tree node latching (optimistic and pessimistic).
	CompLatch
	// CompLock is tuple / transaction-ID lock management.
	CompLock
	// CompBuffer is buffer management: page fetch, swizzle, eviction.
	CompBuffer
	// CompGC is UNDO log / twin table / deleted tuple garbage collection.
	CompGC
	numComponents
)

// NumComponents is the number of accounted components.
const NumComponents = int(numComponents)

// ComponentNames maps Component to the label used in Figure 12.
var ComponentNames = [NumComponents]string{
	"effective computation", "WAL", "MVCC", "latching", "locking", "buffer manager", "GC",
}

// String implements fmt.Stringer.
func (c Component) String() string {
	if int(c) < NumComponents {
		return ComponentNames[c]
	}
	return "unknown"
}

// SlotMetrics accumulates per-component nanoseconds and a
// transaction-latency histogram for one task slot. Only the owning slot may
// call the mutating methods; scrapers may read concurrently (all counters
// are atomic). Padding keeps adjacent slots' hot fields off the same cache
// line.
type SlotMetrics struct {
	nanos [NumComponents]atomic.Int64
	_     [64]byte // padding against false sharing between slots

	// Hist is the slot-local transaction latency distribution.
	Hist Histogram
}

// Add charges d to the component.
func (s *SlotMetrics) Add(c Component, d time.Duration) {
	s.nanos[c].Add(int64(d))
}

// Track runs fn and charges its wall time to the component.
func (s *SlotMetrics) Track(c Component, fn func()) {
	start := time.Now()
	fn()
	s.nanos[c].Add(int64(time.Since(start)))
}

// Recorder owns the slot metrics for a run and aggregates them. Aggregation
// is safe at any time, not just post-quiesce: a scrape concurrent with a
// running transaction sees each counter at some recent value, never torn.
type Recorder struct {
	mu    sync.Mutex
	slots []*SlotMetrics
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewSlot registers and returns a fresh per-slot accumulator.
func (r *Recorder) NewSlot() *SlotMetrics {
	s := &SlotMetrics{}
	r.mu.Lock()
	r.slots = append(r.slots, s)
	r.mu.Unlock()
	return s
}

// Breakdown is the aggregated per-component cost of a run. Blocked time is
// not in it: the paper's Figure 12 counts instructions, and a blocked
// transaction executes none (waitevent accounts for waits).
type Breakdown struct {
	Nanos [NumComponents]int64
}

// Aggregate sums all slot accumulators. Safe to call at any time.
func (r *Recorder) Aggregate() Breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Breakdown
	for _, s := range r.slots {
		for c := 0; c < NumComponents; c++ {
			out.Nanos[c] += s.nanos[c].Load()
		}
	}
	return out
}

// MergedHist merges every slot's transaction-latency histogram into one
// engine-wide distribution.
func (r *Recorder) MergedHist() HistSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out HistSnapshot
	for _, s := range r.slots {
		out.Merge(s.Hist.Snapshot())
	}
	return out
}

// --- I/O counters -----------------------------------------------------------

// IOCounters tracks byte volumes through the storage stack (Exp 3 & 4).
type IOCounters struct {
	DataRead  atomic.Int64
	DataWrite atomic.Int64
	WALWrite  atomic.Int64
}

// SnapshotIO is a point-in-time copy of the counters.
type SnapshotIO struct {
	DataRead, DataWrite, WALWrite int64
}

// Snapshot returns the current counter values.
func (c *IOCounters) Snapshot() SnapshotIO {
	return SnapshotIO{
		DataRead:  c.DataRead.Load(),
		DataWrite: c.DataWrite.Load(),
		WALWrite:  c.WALWrite.Load(),
	}
}
