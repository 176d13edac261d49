package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"phoebedb/internal/metrics"
	"phoebedb/internal/sql"
	"phoebedb/internal/waitevent"
	"phoebedb/internal/wire"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEndMetrics are measured with tracing off and gated by their bounds.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"write_bytes_per_op", "B", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced run and are never gated. A metric
// that does not apply to a workload (checkpoint time outside tpcc, cold
// lookups on a resident table) reads 0.
var perLayerMetrics = []metricDef{
	{name: "client.lat_p95_us", unit: "us", better: "lower"},
	{name: "client.lat_p99_us", unit: "us", better: "lower"},
	{name: "client.lat_max_us", unit: "us", better: "lower"},
	{name: "client.lat_p99_during_checkpoint_us", unit: "us", better: "lower"},
	{name: "client.slice_cv", unit: "ratio", better: "lower"},
	{name: "client.fail_ratio", unit: "ratio", better: "lower"},
	{name: "client.retries_per_op", unit: "count", better: "lower"},
	{name: "wire.self_us_per_op", unit: "us", better: "lower"},
	{name: "wire.codec_us_per_op", unit: "us", better: "lower"},
	{name: "wire.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "wire.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "wire.queue_wait_us_per_op", unit: "us", better: "lower"},
	{name: "wire.pipelined_depth_p50", unit: "count", better: "higher"},
	{name: "wire.rejected_total", unit: "count", better: "lower"},
	{name: "sched.yields_high_per_op", unit: "count", better: "lower"},
	{name: "sched.yields_low_per_op", unit: "count", better: "lower"},
	{name: "sched.stolen_per_op", unit: "count", better: "lower"},
	{name: "sched.queue_depth_max", unit: "count", better: "lower"},
	{name: "sql.self_us_per_op", unit: "us", better: "lower"},
	{name: "sql.parse_us_per_stmt", unit: "us", better: "lower"},
	{name: "sql.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.kernel_us_per_op", unit: "us", better: "lower"},
	{name: "core.compute_share", unit: "ratio", better: "higher"},
	{name: "txn.mvcc_share", unit: "ratio", better: "lower"},
	{name: "wal.record_share", unit: "ratio", better: "lower"},
	{name: "latch.share", unit: "ratio", better: "lower"},
	{name: "lock.share", unit: "ratio", better: "lower"},
	{name: "buffer.share", unit: "ratio", better: "lower"},
	{name: "gc.share", unit: "ratio", better: "lower"},
	{name: "txn.fastpath_ratio", unit: "ratio", better: "higher"},
	{name: "txn.chain_links_per_walk", unit: "count", better: "lower"},
	{name: "txn.aborts_per_commit", unit: "ratio", better: "lower"},
	{name: "lock.tuple_waits_per_op", unit: "count", better: "lower"},
	{name: "lock.tuple_wait_us_per_op", unit: "us", better: "lower"},
	{name: "lock.table_waits_per_op", unit: "count", better: "lower"},
	{name: "gc.reclaimed_per_op", unit: "count", better: "lower"},
	{name: "gc.backlog_end", unit: "count", better: "lower"},
	{name: "core.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "core.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "wal.bytes_per_op", unit: "B", better: "lower"},
	{name: "wal.flushes_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.group_waits_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.flush_wait_us_per_op", unit: "us", better: "lower"},
	{name: "wal.group_lead_us_per_op", unit: "us", better: "lower"},
	{name: "wal.rfa_avoided_per_op", unit: "count", better: "higher"},
	{name: "wal.remote_flush_waits_per_op", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions_per_op", unit: "count", better: "lower"},
	{name: "buffer.io_wait_us_per_op", unit: "us", better: "lower"},
	{name: "buffer.resident_mb", unit: "MiB", better: "lower"},
	{name: "storage.read_bytes_per_op", unit: "B", better: "lower"},
	{name: "storage.write_bytes_per_op", unit: "B", better: "lower"},
	{name: "frozen.lookups_per_op", unit: "count", better: "lower"},
	{name: "frozen.segments_probed_per_lookup", unit: "ratio", better: "lower"},
	{name: "frozen.bloom_negative_ratio", unit: "ratio", better: "higher"},
	{name: "frozen.block_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "frozen.compactions", unit: "count", better: "lower"},
	{name: "frozen.write_amp", unit: "ratio", better: "lower"},
	{name: "frozen.segments_end", unit: "count", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower"},
	{name: "os.sys_cpu_share", unit: "ratio", better: "lower"},
	{name: "os.vol_ctx_switches_per_op", unit: "count", better: "lower"},
	{name: "os.invol_ctx_switches_per_op", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// ladderSpan is one timed operation of the ladder as trace.json holds it.
// The three levels run the same operation stream one after the other, so a
// span's parent is the span of the same op_id one level up.
type ladderSpan struct {
	Name    string  `json:"name"`
	OpID    int     `json:"op_id"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type stmtSample struct {
	q   string
	res sql.Result
}

// ladder is the second part of a traced run: n operations from connection
// 0's stream, synchronous, executed at three levels of the stack.
type ladder struct {
	spans []ladderSpan
	// level medians, in microseconds
	clientUS, sqlUS, coreUS float64
	// statements and results of the sql level, for the codec and parser
	// timings; stmtsPerOp is how many the level issued per operation.
	samples    []stmtSample
	stmtsPerOp float64
}

const maxStmtSamples = 4096

// runLadder executes operations 0..n-1 of the stream three times: through
// client.Conn over loopback, through the in-process SQL entry points, and
// as kernel calls. One client and a fixed count, so the work repeats
// exactly from run to run; only the clock differs.
func runLadder(e *env, s script, n int) (*ladder, error) {
	lad := &ladder{spans: make([]ladderSpan, 0, 3*n)}
	origin := time.Now()
	level := func(name, parent string, op func(i int) (start, end time.Time, err error)) (float64, error) {
		dur := make([]int64, n)
		for i := 0; i < n; i++ {
			start, end, err := op(i)
			if err != nil {
				return 0, fmt.Errorf("%s level, op %d: %w", name, i, err)
			}
			dur[i] = int64(end.Sub(start))
			lad.spans = append(lad.spans, ladderSpan{Name: name, OpID: i, Parent: parent,
				StartUS: float64(start.Sub(origin)) / 1e3, EndUS: float64(end.Sub(origin)) / 1e3})
		}
		slices.Sort(dur)
		return quantile(dur, 0.5) / 1e3, nil
	}

	var err error
	lad.clientUS, err = level("client", "", func(i int) (start, end time.Time, err error) {
		ok := false
		err = s.wire(e.conns[0], i, 1, func(s, e time.Time, k bool, _ int, _ bool) { start, end, ok = s, e, k })
		if err == nil && !ok {
			err = fmt.Errorf("operation failed")
		}
		return
	})
	if err != nil {
		return nil, err
	}
	var stmts int
	capture := func(q string, res sql.Result) {
		stmts++
		if len(lad.samples) < maxStmtSamples {
			lad.samples = append(lad.samples, stmtSample{q, res})
		}
	}
	lad.sqlUS, err = level("sql", "client", func(i int) (time.Time, time.Time, error) {
		start := time.Now()
		err := s.sql(e.db, i, capture)
		return start, time.Now(), err
	})
	if err != nil {
		return nil, err
	}
	lad.stmtsPerOp = float64(stmts) / float64(n)
	lad.coreUS, err = level("core", "sql", func(i int) (time.Time, time.Time, error) {
		start := time.Now()
		err := s.core(e.db, i)
		return start, time.Now(), err
	})
	return lad, err
}

// codecMicros times the wire codec on the ladder's own statements and
// results: request encode and parse, response encode, parse and decode.
func codecMicros(samples []stmtSample) (perStmt float64, err error) {
	var buf []byte
	start := time.Now()
	for _, s := range samples {
		buf = wire.AppendQuery(buf[:0], s.q)
		f, _, err := wire.ParseFrame(buf)
		if err != nil || string(f.Body) != s.q {
			return 0, fmt.Errorf("query frame did not round-trip: %v", err)
		}
		if s.res.Columns == nil {
			buf = wire.AppendOK(buf[:0], s.res.Affected)
			if f, _, err = wire.ParseFrame(buf); err == nil {
				_, err = wire.DecodeOK(f.Body)
			}
		} else {
			buf, _ = wire.AppendRows(buf[:0], s.res.Columns, s.res.Rows)
			if f, _, err = wire.ParseFrame(buf); err == nil {
				_, _, err = wire.DecodeRows(f.Body)
			}
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(len(samples)), nil
}

// parseMicros times sql.Parse on the same statements: what a plan-cache
// miss pays before planning.
func parseMicros(samples []stmtSample) (float64, error) {
	start := time.Now()
	for _, s := range samples {
		if _, err := sql.Parse(s.q); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(len(samples)), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives every per-layer metric: counters differenced across the
// traced window, client tails from its recorded spans, layer self times
// from the ladder, and the tracing overhead against the untraced window.
func perLayer(base, tr *window, lad *ladder) (map[string]metric, error) {
	ops := float64(tr.ops())
	b, a := tr.before, tr.after
	reg := func(name string) float64 { return float64(a.reg[name] - b.reg[name]) }
	histSum := func(name string) float64 { return float64(a.hists[name].Sum - b.hists[name].Sum) }
	waitUS := func(e waitevent.Event) float64 { return float64(a.waitNs[e]-b.waitNs[e]) / 1e3 }
	comp := func(c metrics.Component) float64 { return float64(a.comp.Nanos[c] - b.comp.Nanos[c]) }
	var compTotal float64
	for c := 0; c < metrics.NumComponents; c++ {
		compTotal += comp(metrics.Component(c))
	}
	commits := reg("phoebe_txn_commits_total")

	// Operations that overlapped a checkpoint: they started before it
	// ended and finished after it began.
	var during []int64
	for i, off := range tr.startOff {
		for _, cp := range tr.checkpoints {
			if off < int64(cp.end) && off+tr.latByOp[i] > int64(cp.start) {
				during = append(during, tr.latByOp[i])
				break
			}
		}
	}
	slices.Sort(during)
	var cpMS float64
	for _, cp := range tr.checkpoints {
		cpMS += float64(cp.end-cp.start) / 1e6
	}
	var mean, sq float64
	for _, n := range tr.slices {
		mean += float64(n) / float64(len(tr.slices))
	}
	for _, n := range tr.slices {
		sq += (float64(n) - mean) * (float64(n) - mean) / float64(len(tr.slices))
	}

	codecUS, err := codecMicros(lad.samples)
	if err != nil {
		return nil, err
	}
	parseUS, err := parseMicros(lad.samples)
	if err != nil {
		return nil, err
	}
	u0, s0 := cpuMicros(&b.ru)
	u1, s1 := cpuMicros(&a.ru)
	coldLookups := float64(a.cold.Lookups - b.cold.Lookups)
	coldHits := float64(a.cold.CacheHits - b.cold.CacheHits)
	coldMisses := float64(a.cold.CacheMisses - b.cold.CacheMisses)

	v := map[string]float64{
		"client.lat_p95_us":                   quantile(tr.lat, 0.95) / 1e3,
		"client.lat_p99_us":                   quantile(tr.lat, 0.99) / 1e3,
		"client.lat_max_us":                   float64(tr.lat[len(tr.lat)-1]) / 1e3,
		"client.lat_p99_during_checkpoint_us": quantile(during, 0.99) / 1e3,
		"client.slice_cv":                     ratio(math.Sqrt(sq), mean),
		"client.fail_ratio":                   ratio(float64(tr.failed), ops+float64(tr.failed)),
		"client.retries_per_op":               float64(tr.retries) / ops,

		"wire.self_us_per_op":       lad.clientUS - lad.sqlUS,
		"wire.codec_us_per_op":      codecUS * lad.stmtsPerOp,
		"wire.bytes_in_per_op":      reg("phoebe_server_bytes_in") / ops,
		"wire.bytes_out_per_op":     reg("phoebe_server_bytes_out") / ops,
		"wire.queue_wait_us_per_op": histSum("phoebe_server_queue_wait") / 1e3 / ops,
		// Depths are recorded through the duration histogram, one
		// nanosecond per pending request.
		"wire.pipelined_depth_p50": float64(a.hists["phoebe_server_pipelined_depth"].Quantile(0.5)),
		"wire.rejected_total":      reg(`phoebe_server_rejected{reason="overloaded"}`) + reg(`phoebe_server_rejected{reason="connections"}`),

		"sched.yields_high_per_op": reg("phoebe_sched_yields_high_total") / ops,
		"sched.yields_low_per_op":  reg("phoebe_sched_yields_low_total") / ops,
		"sched.stolen_per_op":      reg("phoebe_sched_stolen_total") / ops,
		"sched.queue_depth_max":    float64(tr.queueMax),

		"sql.self_us_per_op":       lad.sqlUS - lad.coreUS,
		"sql.parse_us_per_stmt":    parseUS,
		"sql.plan_cache_hit_ratio": ratio(float64(a.planHit-b.planHit), float64(a.planHit-b.planHit+a.planMis-b.planMis)),

		"core.kernel_us_per_op":     lad.coreUS,
		"core.compute_share":        ratio(comp(metrics.CompCompute), compTotal),
		"txn.mvcc_share":            ratio(comp(metrics.CompMVCC), compTotal),
		"wal.record_share":          ratio(comp(metrics.CompWAL), compTotal),
		"latch.share":               ratio(comp(metrics.CompLatch), compTotal),
		"lock.share":                ratio(comp(metrics.CompLock), compTotal),
		"buffer.share":              ratio(comp(metrics.CompBuffer), compTotal),
		"gc.share":                  ratio(comp(metrics.CompGC), compTotal),
		"txn.fastpath_ratio":        ratio(reg("phoebe_mvcc_fastpath_total"), reg("phoebe_mvcc_fastpath_total")+reg("phoebe_mvcc_chain_walks_total")),
		"txn.chain_links_per_walk":  ratio(reg("phoebe_mvcc_chain_links_total"), reg("phoebe_mvcc_chain_walks_total")),
		"txn.aborts_per_commit":     ratio(reg("phoebe_txn_aborts_total"), commits),
		"lock.tuple_waits_per_op":   reg("phoebe_lock_tuple_waits_total") / ops,
		"lock.tuple_wait_us_per_op": waitUS(waitevent.EvTupleLock) / ops,
		"lock.table_waits_per_op":   reg("phoebe_lock_table_waits_total") / ops,
		"gc.reclaimed_per_op":       reg("phoebe_gc_reclaimed_total") / ops,
		"gc.backlog_end":            float64(a.reg["phoebe_gc_backlog"]),
		"core.checkpoint_ms":        cpMS,
		"core.checkpoint_bytes":     float64(tr.cpBytes),

		"wal.bytes_per_op":              float64(a.stats.WALWriteBytes-b.stats.WALWriteBytes) / ops,
		"wal.flushes_per_commit":        ratio(reg("phoebe_wal_flushes_total"), commits),
		"wal.group_waits_per_commit":    ratio(reg("phoebe_wal_group_waits_total"), commits),
		"wal.flush_wait_us_per_op":      waitUS(waitevent.EvWALFlush) / ops,
		"wal.group_lead_us_per_op":      waitUS(waitevent.EvWALGroupLead) / ops,
		"wal.rfa_avoided_per_op":        reg("phoebe_wal_rfa_avoided_total") / ops,
		"wal.remote_flush_waits_per_op": reg("phoebe_wal_remote_flush_waits_total") / ops,

		"buffer.hit_ratio":           ratio(reg("phoebe_buffer_hits_total"), reg("phoebe_buffer_accesses_total")),
		"buffer.evictions_per_op":    reg("phoebe_buffer_evictions_total") / ops,
		"buffer.io_wait_us_per_op":   waitUS(waitevent.EvBufferIO) / ops,
		"buffer.resident_mb":         float64(a.stats.BufferResidentBytes) / (1 << 20),
		"storage.read_bytes_per_op":  float64(a.stats.DataReadBytes-b.stats.DataReadBytes) / ops,
		"storage.write_bytes_per_op": float64(a.stats.DataWriteBytes-b.stats.DataWriteBytes) / ops,

		"frozen.lookups_per_op":             coldLookups / ops,
		"frozen.segments_probed_per_lookup": ratio(float64(a.cold.SegmentsProbed-b.cold.SegmentsProbed), coldLookups),
		"frozen.bloom_negative_ratio":       ratio(float64(a.cold.BloomNegatives-b.cold.BloomNegatives), coldLookups),
		"frozen.block_cache_hit_ratio":      ratio(coldHits, coldHits+coldMisses),
		"frozen.compactions":                float64(a.cold.Compactions - b.cold.Compactions),
		"frozen.write_amp":                  ratio(float64(a.cold.FreezeBytes+a.cold.CompactBytes), float64(a.cold.FreezeBytes)),
		"frozen.segments_end":               float64(a.cold.Segments),

		"runtime.allocs_per_op":        float64(a.mem.Mallocs-b.mem.Mallocs) / ops,
		"runtime.gc_cycles":            float64(a.mem.NumGC - b.mem.NumGC),
		"runtime.gc_pause_ms":          float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6,
		"runtime.goroutines_peak":      float64(tr.goroutineMax),
		"os.sys_cpu_share":             ratio(s1-s0, u1+s1-u0-s0),
		"os.vol_ctx_switches_per_op":   float64(a.ru.Nvcsw-b.ru.Nvcsw) / ops,
		"os.invol_ctx_switches_per_op": float64(a.ru.Nivcsw-b.ru.Nivcsw) / ops,

		"trace.overhead_ratio": ratio(base.opsPerSecond(), tr.opsPerSecond()),
	}
	return withUnits(perLayerMetrics, v), nil
}
