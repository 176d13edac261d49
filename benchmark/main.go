// Command benchmark measures PhoebeDB the way a client sees it: four named
// workloads driven through client -> loopback TCP -> internal/wire -> the
// slot pool -> internal/sql -> the kernel -> WAL -> fsync, all inside this
// one process. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// warmup is discarded before the first window: long enough for the plan
// cache and the cold-block cache to fill and, on cold_read, for the buffer
// pool's sweep to reach its steady churn.
const (
	warmup      = 5 * time.Second
	smokeWarmup = 200 * time.Millisecond
)

// smokeShrink divides row counts, stream lengths and ladder counts in smoke
// mode. Not smaller data than a quarter: a tenth of cold_read fits the
// cold-block cache, runs at 50k ops/s over 64 blocks, and reaches the
// engine's 1024-reads-per-block warm threshold inside two seconds; a block
// being warmed is invisible to readers until its transaction commits, and
// the output check then (rightly) fails.
const smokeShrink = 4

type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	warmup   time.Duration
	trace    bool
	shrink   int // 1, or smokeShrink in smoke mode
	base     string
	out      string
	traceOut string // the ladder's spans, written by a traced run
}

// setupReps is how often set-up runs for the setup_s median: once in smoke
// mode.
func (c runConfig) setupReps() int {
	if c.shrink > 1 {
		return 1
	}
	return c.workload.setupReps
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "all", "tpcc, point_read, point_update, cold_read, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated operation streams")
		seconds  = flag.Int("seconds", 20, "measured time, in one-second slices")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the layer ladder")
		smoke    = flag.Bool("smoke", false, "quarter-size data, a single set-up and a 200-ms warm-up, for the hygiene test")
		dir      = flag.String("dir", ".bench_build", "scratch directory: receives the data directory and trace.json")
		out      = flag.String("out", "", "write the run record (JSON) into this directory")
		deadline = flag.Duration("deadline", 170*time.Second, "hard-exit non-zero when the run is still going after this long")
		compare  = flag.Bool("compare", false, "compare two sets of run records: -compare <file|dir> <file|dir>")
	)
	flag.Parse()
	if *compare {
		return compareRecords(flag.Args())
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	base, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The watchdog turns a hang into a failure. The server, the clients
	// and the engine all live in this process, so exiting it leaves no
	// process and no listening socket behind; only the data has to go.
	watchdog := time.AfterFunc(*deadline*time.Duration(len(selected)), func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up\n", *deadline)
		os.RemoveAll(base)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer os.RemoveAll(base)
	// A run that is told to stop goes the same way: nothing outlives the
	// process, and the data is removed on the way out.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(base)
		os.Exit(4)
	}()

	for _, w := range selected {
		cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, warmup: warmup, trace: *trace != 0,
			shrink: 1, base: base, out: *out, traceOut: filepath.Join(*dir, "trace.json")}
		if *smoke {
			cfg.shrink, cfg.warmup = smokeShrink, smokeWarmup
		}
		rec, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if cfg.out != "" {
			if err := writeJSON(filepath.Join(cfg.out, rec.fileName()), rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printResult(rec)
	}
	return 0
}

// runWorkload sets the system up, measures one workload and tears
// everything down again before returning.
func runWorkload(cfg runConfig) (*record, error) {
	w := cfg.workload
	var e *env
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			// Return the discarded instance's memory before the next one
			// grows, so peak_rss_mb is one instance's, not the sum.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg.base, w, cfg.shrink); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: server listening on %s, data in %s\n", w.name, e.ln.Addr(), e.dir)
	rec, err := measure(cfg, e, median(setups))
	if cerr := e.close(); err == nil {
		err = cerr
	}
	return rec, err
}

func measure(cfg runConfig, e *env, setupS float64) (*record, error) {
	w := cfg.workload
	scripts := w.scripts(cfg.seed, cfg.shrink)
	pos := make([]int, len(scripts))
	// A traced run measures for the same time as an untraced one: half of
	// it in the untraced window, the other half in the traced one.
	seconds := cfg.seconds
	if cfg.trace {
		seconds = (cfg.seconds + 1) / 2
	}
	rec := newRecord(cfg, e, seconds)
	win, err := runWindow(e, w, scripts, pos, cfg.warmup, seconds, false)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		if err := w.verify(e, scripts, pos); err != nil {
			return nil, fmt.Errorf("output check: %w", err)
		}
		rec.Metrics = endToEnd(win, setupS)
		rec.fill(win)
		return rec, nil
	}
	// End-to-end numbers always come from an untraced window; the traced
	// window follows it on the same system and is compared with it for the
	// tracing overhead.
	traced, err := runWindow(e, w, scripts, pos, 0, seconds, true)
	if err != nil {
		return nil, err
	}
	if err := w.verify(e, scripts, pos); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	lad, err := runLadder(e, scripts[0], w.ladderOps/cfg.shrink)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := writeJSON(cfg.traceOut, lad.spans); err != nil {
		return nil, err
	}
	if rec.Metrics, err = perLayer(win, traced, lad); err != nil {
		return nil, err
	}
	rec.fill(traced)
	return rec, nil
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the driver reads.
func printResult(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	// The flush policy goes with every result: Options as passed to Open
	// (a 0 leaves the field to the engine's default) and the filesystem
	// fsync reaches.
	fmt.Printf("# %s seed=%d window=%ds gomaxprocs=%d walsync=%v group_commit_wait_us=%d buffer_bytes=%d dir_fs=%s\n",
		rec.Config.Workload, rec.Env.Seed, rec.Config.WindowS, runtime.GOMAXPROCS(0), rec.Config.WALSync,
		rec.Config.GroupCommitWaitUS, rec.Config.BufferBytes, rec.Config.DirFS)
	for _, n := range names {
		fmt.Printf("%-40s %16.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	line, _ := json.Marshal(struct { // marshalling maps, strings and numbers cannot fail
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
}
