package metrics

import (
	"bytes"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != int64(100*time.Millisecond) {
		t.Fatalf("max = %d", s.Max)
	}
	// Log2 buckets overstate by at most 2x within a bucket.
	p50 := s.Quantile(0.50)
	if p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < time.Millisecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v (990/1000 observations are 1ms)", p99)
	}
	// The tail quantile is clamped to the observed max, never beyond.
	if q := s.Quantile(1.0); q != 100*time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
	if m := s.Mean(); m < time.Millisecond || m > 3*time.Millisecond {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramMergeAcrossSlots(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(8 * time.Millisecond)
	}
	var m HistSnapshot
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	if m.Count != 200 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if m.Max != int64(8*time.Millisecond) {
		t.Fatalf("merged max = %d", m.Max)
	}
	// Half the mass is at 1ms, half at 8ms: p50 stays in the low bucket.
	if p := m.Quantile(0.50); p > 2*time.Millisecond {
		t.Fatalf("merged p50 = %v", p)
	}
	if p := m.Quantile(0.95); p < 8*time.Millisecond {
		t.Fatalf("merged p95 = %v", p)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(1+i%1000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestTraceRingKeepsNewest(t *testing.T) {
	var r TraceRing
	for i := 0; i < TraceRingSize+10; i++ {
		r.Record(TxnTrace{XID: uint64(i), Total: time.Duration(i)})
	}
	got := r.Recent()
	if len(got) != TraceRingSize {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].XID != uint64(TraceRingSize+9) {
		t.Fatalf("newest first: got[0].XID = %d", got[0].XID)
	}
	for i := 1; i < len(got); i++ {
		if got[i].XID != got[i-1].XID-1 {
			t.Fatalf("not newest-first at %d: %d after %d", i, got[i].XID, got[i-1].XID)
		}
	}
}

func TestSlowLogThresholdAndOutput(t *testing.T) {
	var sl SlowLog
	fast := TxnTrace{XID: 1, Total: time.Millisecond}
	slow := TxnTrace{XID: 2, Total: 50 * time.Millisecond, Committed: true}
	slow.Comp[CompWAL] = 40 * time.Millisecond

	sl.Offer(fast) // threshold unset: nothing is slow
	sl.Offer(slow)
	if sl.Count() != 0 {
		t.Fatalf("disarmed slow log counted %d", sl.Count())
	}

	var buf bytes.Buffer
	sl.SetOutput(log.New(&buf, "", 0))
	sl.SetThreshold(10 * time.Millisecond)
	sl.Offer(fast)
	sl.Offer(slow)
	if sl.Count() != 1 {
		t.Fatalf("count = %d", sl.Count())
	}
	if got := sl.Recent(); len(got) != 1 || got[0].XID != 2 {
		t.Fatalf("recent = %+v", got)
	}
	out := buf.String()
	if !strings.Contains(out, "slow txn") || !strings.Contains(out, "WAL") {
		t.Fatalf("log output %q lacks breakdown", out)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "A counter.", func() int64 { return 42 })
	reg.Gauge("test_gauge", "A gauge.", func() int64 { return -1 })
	var h Histogram
	h.Observe(time.Millisecond)
	reg.Histogram("test_latency_seconds", "A histogram.", "", "", h.Snapshot)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_total counter",
		"test_total 42",
		"test_gauge -1",
		"# TYPE test_latency_seconds histogram",
		`le="+Inf"`,
		"test_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
