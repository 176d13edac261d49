package metrics

import (
	"sort"
	"sync"
	"time"

	"phoebedb/internal/waitevent"
)

// StmtStatsDefaultMax bounds the distinct normalized statements tracked;
// beyond it new fingerprints collapse into one overflow bucket so a
// fingerprint flood (badly parameterized ad-hoc SQL) cannot grow the store
// without bound.
const StmtStatsDefaultMax = 512

// stmtOverflowText is the overflow bucket's reported statement text.
const stmtOverflowText = "<other statements>"

// StmtStat is the cumulative execution profile of one normalized statement
// fingerprint — the pg_stat_statements row. The ID is the value published
// in each executing slot's waitevent statement word, so the ASH sampler can
// resolve what a sampled slot was running.
type StmtStat struct {
	ID   uint64
	Text string

	mu        sync.Mutex
	calls     int64
	errs      int64
	total     int64 // ns
	rows      int64
	bufMisses int64
	walBytes  int64
	waitCount [waitevent.NumEvents]int64
	waitNanos [waitevent.NumEvents]int64
	hist      Histogram
}

// StmtSample is one statement execution's deltas: wall time, rows produced,
// buffer misses and WAL bytes attributed to the statement, and the per-event
// wait deltas differenced from the slot's waitevent snapshots.
type StmtSample struct {
	Elapsed   time.Duration
	Rows      int64
	Err       bool
	BufMisses int64
	WALBytes  int64
	Waits     waitevent.Snapshot
}

// Record folds one execution into the statement's totals.
func (st *StmtStat) Record(s *StmtSample) {
	st.mu.Lock()
	st.calls++
	if s.Err {
		st.errs++
	}
	st.total += int64(s.Elapsed)
	st.rows += s.Rows
	st.bufMisses += s.BufMisses
	st.walBytes += s.WALBytes
	for e := 0; e < waitevent.NumEvents; e++ {
		st.waitCount[e] += s.Waits.Count[e]
		st.waitNanos[e] += s.Waits.Nanos[e]
	}
	st.mu.Unlock()
	st.hist.Observe(s.Elapsed)
}

// StmtSnapshot is a point-in-time copy of one statement's totals.
type StmtSnapshot struct {
	ID         uint64
	Text       string
	Calls      int64
	Errors     int64
	TotalNanos int64
	Rows       int64
	BufMisses  int64
	WALBytes   int64
	WaitCount  [waitevent.NumEvents]int64
	WaitNanos  [waitevent.NumEvents]int64
	Hist       HistSnapshot
}

// MeanNanos returns the average statement latency.
func (s *StmtSnapshot) MeanNanos() int64 {
	if s.Calls == 0 {
		return 0
	}
	return s.TotalNanos / s.Calls
}

// Snapshot copies the statement's totals.
func (st *StmtStat) Snapshot() StmtSnapshot {
	st.mu.Lock()
	out := StmtSnapshot{
		ID:         st.ID,
		Text:       st.Text,
		Calls:      st.calls,
		Errors:     st.errs,
		TotalNanos: st.total,
		Rows:       st.rows,
		BufMisses:  st.bufMisses,
		WALBytes:   st.walBytes,
		WaitCount:  st.waitCount,
		WaitNanos:  st.waitNanos,
	}
	st.mu.Unlock()
	out.Hist = st.hist.Snapshot()
	return out
}

// StmtStats is the engine-wide per-statement aggregate store, keyed by the
// plan cache's normalized statement text.
type StmtStats struct {
	mu       sync.RWMutex
	byText   map[string]*StmtStat
	byID     map[uint64]*StmtStat
	nextID   uint64
	max      int
	overflow *StmtStat
}

// NewStmtStats creates a store tracking at most max distinct statements
// (<= 0 uses StmtStatsDefaultMax).
func NewStmtStats(max int) *StmtStats {
	if max <= 0 {
		max = StmtStatsDefaultMax
	}
	return &StmtStats{
		byText: make(map[string]*StmtStat),
		byID:   make(map[uint64]*StmtStat),
		max:    max,
	}
}

// Intern returns the stat row for the normalized statement text, creating
// it on first sight (or routing to the overflow bucket at capacity).
func (ss *StmtStats) Intern(text string) *StmtStat {
	ss.mu.RLock()
	st := ss.byText[text]
	ss.mu.RUnlock()
	if st != nil {
		return st
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if st := ss.byText[text]; st != nil {
		return st
	}
	if len(ss.byText) >= ss.max {
		if ss.overflow == nil {
			ss.nextID++
			ss.overflow = &StmtStat{ID: ss.nextID, Text: stmtOverflowText}
			ss.byID[ss.overflow.ID] = ss.overflow
		}
		return ss.overflow
	}
	ss.nextID++
	st = &StmtStat{ID: ss.nextID, Text: text}
	ss.byText[text] = st
	ss.byID[st.ID] = st
	return st
}

// ByID resolves a statement ID (as sampled from a slot's waitevent word).
func (ss *StmtStats) ByID(id uint64) *StmtStat {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.byID[id]
}

// TextByID returns the statement text for an ID ("" if unknown) — the ASH
// sampler's resolution path.
func (ss *StmtStats) TextByID(id uint64) string {
	st := ss.ByID(id)
	if st == nil {
		return ""
	}
	return st.Text
}

// Snapshot returns every tracked statement's totals, statements with the
// most total time first.
func (ss *StmtStats) Snapshot() []StmtSnapshot {
	ss.mu.RLock()
	stats := make([]*StmtStat, 0, len(ss.byID))
	for _, st := range ss.byID {
		stats = append(stats, st)
	}
	ss.mu.RUnlock()
	out := make([]StmtSnapshot, 0, len(stats))
	for _, st := range stats {
		snap := st.Snapshot()
		if snap.Calls == 0 {
			continue
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNanos != out[j].TotalNanos {
			return out[i].TotalNanos > out[j].TotalNanos
		}
		return out[i].ID < out[j].ID
	})
	return out
}
