package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/metrics"
	"phoebedb/internal/waitevent"
	"phoebedb/internal/wire"
)

// env is one set-up system under test: database, wire server on a
// loopback port, and the client connections, all inside this process.
type env struct {
	dir      string
	db       *phoebedb.DB
	srv      *wire.Server
	ln       net.Listener
	serveErr chan error
	conns    []*client.Conn
}

// options is the engine configuration of every run: WAL fsync on commit and
// everything else at the server's default, except the buffer size a
// larger-than-memory workload states.
func options(dir string, w *workload) phoebedb.Options {
	return phoebedb.Options{Dir: dir, WALSync: true, BufferBytes: w.bufferBytes}
}

// setup builds the system a client would find: open, schema, load,
// freeze/compact/checkpoint, listen, dial. The caller owns close.
func setup(base string, w *workload, shrink int) (*env, error) {
	dir, err := os.MkdirTemp(base, "data-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if e.db, err = phoebedb.Open(options(dir, w)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err = w.declare(e.db); err == nil {
		err = w.load(e.db, shrink)
	}
	if err == nil && w.restart {
		err = e.restart(w)
	}
	if err == nil {
		e.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = wire.NewServer(e.db)
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(e.ln) }()
	for i := 0; i < connections; i++ {
		c, err := client.Dial(e.ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// restart closes the database and recovers it from its checkpoint: schema
// first, then the image and whatever WAL follows it.
func (e *env) restart(w *workload) error {
	err := e.db.Close()
	e.db = nil
	if err != nil {
		return err
	}
	if e.db, err = phoebedb.Open(options(e.dir, w)); err != nil {
		return err
	}
	if err = w.declare(e.db); err == nil {
		_, err = e.db.Recover()
	}
	return err
}

// close stops everything setup started and waits for it: connections,
// server goroutines, the engine's pool, and the data directory.
func (e *env) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	var err error
	if e.srv != nil {
		e.srv.Shutdown(e.ln)
		err = <-e.serveErr
	}
	if e.db != nil {
		err = errors.Join(err, e.db.Close())
	}
	return errors.Join(err, os.RemoveAll(e.dir))
}

// snapshot is every cumulative counter the metrics are differenced from,
// read at one instant.
type snapshot struct {
	ru      syscall.Rusage
	mem     runtime.MemStats
	stats   phoebedb.Stats
	reg     map[string]int64
	hists   map[string]metrics.HistSnapshot
	comp    metrics.Breakdown
	waitN   [waitevent.NumEvents]int64
	waitNs  [waitevent.NumEvents]int64
	cold    phoebedb.ColdStats
	planHit int64
	planMis int64
}

func takeSnapshot(db *phoebedb.DB) *snapshot {
	s := &snapshot{reg: map[string]int64{}, hists: map[string]metrics.HistSnapshot{}}
	syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // fails only on a bad pointer
	runtime.ReadMemStats(&s.mem)
	s.stats = db.Stats()
	for _, sm := range db.Metrics().Samples() {
		s.reg[sm.Name] = sm.Value
	}
	for _, h := range db.Metrics().Histograms() {
		s.hists[h.Name] = h.Snap
	}
	s.comp = db.Recorder().Aggregate()
	s.waitN, s.waitNs = db.Waits().Totals()
	s.cold = db.ColdStats()
	s.planHit, s.planMis = db.PlanCacheStats()
	return s
}

func cpuMicros(ru *syscall.Rusage) (user, sys float64) {
	return float64(ru.Utime.Sec)*1e6 + float64(ru.Utime.Usec), float64(ru.Stime.Sec)*1e6 + float64(ru.Stime.Usec)
}

// recorder collects one connection's operations that finished inside the
// window; only that connection's goroutine writes it.
type recorder struct {
	from, to time.Time
	lat      []int64 // ns, successful operations
	primary  []int64 // ns, the operations lat_p50_us counts; nil unless the workload is mixed
	startOff []int64 // ns from window start to the operation's start; nil unless traced
	slices   []int64 // successful operations per slice
	failed   int64
	retries  int64
}

const sliceLen = time.Second

func (r *recorder) done(start, end time.Time, ok bool, retries int, primary bool) {
	if end.Before(r.from) || !end.Before(r.to) {
		return
	}
	r.retries += int64(retries)
	if !ok {
		r.failed++
		return
	}
	if primary && r.primary != nil {
		r.primary = append(r.primary, int64(end.Sub(start)))
	}
	r.lat = append(r.lat, int64(end.Sub(start)))
	if r.startOff != nil {
		r.startOff = append(r.startOff, int64(start.Sub(r.from)))
	}
	r.slices[end.Sub(r.from)/sliceLen]++
}

// span is a timed call the harness made itself.
type span struct{ start, end time.Duration } // offsets from the window start

// window is what one timed window measured.
type window struct {
	before       *snapshot
	after        *snapshot
	lat          []int64 // sorted
	primaryLat   []int64 // sorted; what lat_p50_us is the median of
	startOff     []int64 // traced: each operation's start, parallel to latByOp
	latByOp      []int64 // traced: latencies in recording order
	slices       []int64
	failed       int64
	retries      int64
	checkpoints  []span
	cpBytes      int64
	queueMax     int64 // traced: sampled
	goroutineMax int64 // traced: sampled
}

func (w *window) ops() int64 { return int64(len(w.lat)) }

// runWindow drives every connection through warm-up and a measured window
// of `seconds` one-second slices, closed loop: a connection refills its
// pipeline only when the previous batch has been answered. pos carries each
// connection's stream position across windows.
func runWindow(e *env, w *workload, scripts []script, pos []int, warmup time.Duration, seconds int, traced bool) (*window, error) {
	from := time.Now().Add(warmup)
	to := from.Add(time.Duration(seconds) * sliceLen)
	recs := make([]*recorder, len(e.conns))
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, len(e.conns))
	for i := range e.conns {
		capacity := w.rateHint * seconds / len(e.conns)
		recs[i] = &recorder{from: from, to: to, lat: make([]int64, 0, capacity), slices: make([]int64, seconds)}
		if traced {
			recs[i].startOff = make([]int64, 0, capacity)
		}
		if w.mixed {
			recs[i].primary = make([]int64, 0, capacity)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				if err := scripts[i].wire(e.conns[i], pos[i], w.depth, recs[i].done); err != nil {
					errs <- fmt.Errorf("connection %d: %w", i, err)
					stop.Store(true)
					return
				}
				pos[i] += w.depth
			}
		}(i)
	}

	win := new(window)
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for !stop.Load() {
				for _, sm := range e.db.Metrics().Samples() {
					if sm.Name == "phoebe_sched_queue_depth" && sm.Value > win.queueMax {
						win.queueMax = sm.Value
					}
				}
				if g := int64(runtime.NumGoroutine()); g > win.goroutineMax {
					win.goroutineMax = g
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}

	time.Sleep(time.Until(from))
	win.before = takeSnapshot(e.db)
	if w.checkpoints {
		gate := scripts[0].(*tpccScript).gate
		for k := 1; k <= 2; k++ {
			time.Sleep(time.Until(from.Add(time.Duration(k*seconds) * sliceLen / 3)))
			if stop.Load() {
				break
			}
			gate.Lock()
			wrote := e.db.Stats().DataWriteBytes
			t0 := time.Now()
			err := e.db.Checkpoint()
			win.checkpoints = append(win.checkpoints, span{t0.Sub(from), time.Since(from)})
			win.cpBytes += e.db.Stats().DataWriteBytes - wrote
			gate.Unlock()
			if err != nil {
				stop.Store(true)
				wg.Wait()
				return nil, fmt.Errorf("checkpoint in window: %w", err)
			}
		}
	}
	time.Sleep(time.Until(to))
	win.after = takeSnapshot(e.db)
	stop.Store(true)
	wg.Wait()
	sampler.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	win.slices = make([]int64, seconds)
	for _, r := range recs {
		win.lat = append(win.lat, r.lat...)
		win.primaryLat = append(win.primaryLat, r.primary...)
		win.startOff = append(win.startOff, r.startOff...)
		win.failed += r.failed
		win.retries += r.retries
		for i, n := range r.slices {
			win.slices[i] += n
		}
	}
	if len(win.lat) == 0 {
		return nil, fmt.Errorf("no operation finished inside the window (%d failed)", win.failed)
	}
	if traced {
		win.latByOp = slices.Clone(win.lat)
	}
	slices.Sort(win.lat)
	if w.mixed {
		slices.Sort(win.primaryLat)
	} else {
		win.primaryLat = win.lat
	}
	return win, nil
}

// quantile reads the q-quantile of sorted samples, interpolating between
// neighbours so the result keeps the samples' resolution.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := q * float64(len(sorted)-1)
	lo := int(math.Floor(x))
	hi := int(math.Ceil(x))
	return float64(sorted[lo]) + (x-float64(lo))*float64(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opsPerSecond is the median one-second slice: a neighbour's burst on the
// shared machine spoils a slice or two, not the median.
func (w *window) opsPerSecond() float64 {
	perSlice := make([]float64, len(w.slices))
	for i, n := range w.slices {
		perSlice[i] = float64(n) / sliceLen.Seconds()
	}
	return median(perSlice)
}

// endToEnd derives the seven client-visible metrics from an untraced
// window. The process holds both the two clients and the server, so
// cpu_us_per_op and alloc_bytes_per_op include the client side.
func endToEnd(win *window, setupS float64) map[string]metric {
	ops := float64(win.ops())
	u0, s0 := cpuMicros(&win.before.ru)
	u1, s1 := cpuMicros(&win.after.ru)
	written := float64(win.after.stats.WALWriteBytes + win.after.stats.DataWriteBytes -
		win.before.stats.WALWriteBytes - win.before.stats.DataWriteBytes)
	return withUnits(endToEndMetrics, map[string]float64{
		"ops_per_s":     win.opsPerSecond(),
		"lat_p50_us":    quantile(win.primaryLat, 0.5) / 1e3,
		"cpu_us_per_op": (u1 + s1 - u0 - s0) / ops,
		// Floored at 1 so that ratios exist on the read-only workloads.
		"write_bytes_per_op": math.Max(1, written/ops),
		"alloc_bytes_per_op": float64(win.after.mem.TotalAlloc-win.before.mem.TotalAlloc) / ops,
		"peak_rss_mb":        peakRSSMiB(),
		"setup_s":            setupS,
	})
}

// withUnits pairs computed values with the units their definitions state;
// a definition without a value is a programming error.
func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		val, ok := v[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " is defined but not computed")
		}
		out[d.name] = metric{val, d.unit}
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsName names the filesystem a directory lives on, so a record says what
// an fsync in it reached.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
