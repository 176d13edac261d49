package metrics

import (
	"fmt"
	"io"
	"log"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TxnTrace is the component breakdown of one finished transaction, built by
// the owning slot at commit/abort time from the same Component accounting
// that feeds the Figure-12 style aggregate breakdown.
type TxnTrace struct {
	XID       uint64
	Slot      int
	Start     time.Time
	Total     time.Duration
	Wait      time.Duration
	Committed bool
	Comp      [NumComponents]time.Duration
	// Stmt is the normalized fingerprint of the statement the transaction
	// was executing (empty for engine-API transactions); Plan is the plan
	// provenance the executor chose (access path, join strategy) — together
	// they make a slow-transaction line actionable without re-running the
	// query.
	Stmt string
	Plan string
}

// String renders the trace one-line, dominant components first.
func (t TxnTrace) String() string {
	var b strings.Builder
	state := "commit"
	if !t.Committed {
		state = "abort"
	}
	fmt.Fprintf(&b, "xid=%d slot=%d %s total=%v wait=%v", t.XID, t.Slot, state, t.Total, t.Wait)
	if t.Stmt != "" {
		fmt.Fprintf(&b, " stmt=%q", t.Stmt)
	}
	if t.Plan != "" {
		fmt.Fprintf(&b, " plan=%q", t.Plan)
	}
	type cd struct {
		c Component
		d time.Duration
	}
	parts := make([]cd, 0, NumComponents)
	for c := Component(0); c < numComponents; c++ {
		if t.Comp[c] > 0 {
			parts = append(parts, cd{c, t.Comp[c]})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].d > parts[j].d })
	for _, p := range parts {
		fmt.Fprintf(&b, " %s=%v", p.c, p.d)
	}
	return b.String()
}

// TraceRingSize is the per-slot trace ring capacity. 64 recent transactions
// per slot is enough for "what just ran here" forensics while keeping the
// per-slot footprint a few KiB.
const TraceRingSize = 64

// TraceRing is a fixed-size ring of recent transaction traces. It is owned
// by one slot: Record is only called by the owner, so the only
// synchronization is a short mutex shielding scrapers — taken once per
// transaction, never per-operation.
type TraceRing struct {
	mu     sync.Mutex
	traces [TraceRingSize]TxnTrace
	next   int
	filled bool
}

// Record appends t, overwriting the oldest entry when full.
func (r *TraceRing) Record(t TxnTrace) {
	r.mu.Lock()
	r.traces[r.next] = t
	r.next++
	if r.next == TraceRingSize {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Recent returns the ring contents, newest first.
func (r *TraceRing) Recent() []TxnTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = TraceRingSize
	}
	out := make([]TxnTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.traces[(r.next-i+TraceRingSize)%TraceRingSize])
	}
	return out
}

// SlowLog collects transactions whose total latency exceeded a threshold,
// keeping a bounded ring of recent offenders and optionally echoing each to a
// logger. A zero threshold disables it entirely (one atomic load per txn).
type SlowLog struct {
	threshold atomic.Int64 // ns; 0 = disabled
	count     atomic.Int64
	out       atomic.Pointer[log.Logger]
	ring      TraceRing
}

// SetThreshold arms the log at d (0 disables).
func (s *SlowLog) SetThreshold(d time.Duration) { s.threshold.Store(int64(d)) }

// SetOutput directs per-offender log lines to l (nil keeps collecting
// silently into the ring).
func (s *SlowLog) SetOutput(l *log.Logger) { s.out.Store(l) }

// Count reports how many transactions exceeded the threshold so far.
func (s *SlowLog) Count() int64 { return s.count.Load() }

// Offer records t if it exceeds the armed threshold.
func (s *SlowLog) Offer(t TxnTrace) {
	th := s.threshold.Load()
	if th <= 0 || int64(t.Total) < th {
		return
	}
	s.count.Add(1)
	s.ring.Record(t)
	if l := s.out.Load(); l != nil {
		l.Printf("slow txn (>%v): %s", time.Duration(th), t.String())
	}
}

// Recent returns the slow transactions still in the ring, newest first.
func (s *SlowLog) Recent() []TxnTrace { return s.ring.Recent() }

// Dump writes the retained slow transactions to w, newest first.
func (s *SlowLog) Dump(w io.Writer) {
	for _, t := range s.Recent() {
		fmt.Fprintln(w, t.String())
	}
}
