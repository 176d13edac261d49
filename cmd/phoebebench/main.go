// Command phoebebench regenerates the paper's evaluation (§9): every
// table and figure as a laptop-scale run. Each experiment prints the rows
// or time series of its figure.
//
// Usage:
//
//	phoebebench -exp all            # run the full evaluation
//	phoebebench -exp 1              # Figure 7(a): tpmC vs scale
//	phoebebench -exp 8 -seconds 10  # the PostgreSQL comparison, longer run
//	phoebebench -exp ablations      # the design-choice ablations
//
// Flags tune duration, worker cap, slot depth, and WAL fsync.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"phoebedb/internal/bench"
)

func main() {
	// All work happens in run so gate failures exit AFTER the deferred
	// profile writers flush — a failing run is exactly when the profiles
	// matter.
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment: 1-9, 'ablations', 'overhead', 'scale', 'connmux', or 'all'")
		seconds  = flag.Float64("seconds", 3, "measured duration per run")
		workers  = flag.Int("workers", 0, "max worker threads (default GOMAXPROCS)")
		slots    = flag.Int("slots", 32, "task slots per worker (paper: 32)")
		walSync  = flag.Bool("walsync", true, "fsync WAL on commit (the paper's evaluated setting)")
		maxOver  = flag.Float64("max-overhead", 0, "with -exp overhead: exit non-zero if instrumentation regression exceeds this percent (0 = report only)")
		minScale = flag.Float64("min-scale", 0, "with -exp scale: exit non-zero if 8-worker tpm is below this multiple of 1-worker tpm (0 = report only)")
		conns    = flag.Int("conns", 10000, "with -exp connmux: loopback connection count (clamped to the fd limit)")
		pipeline = flag.Int("pipeline", 32, "with -exp connmux: pipelined statements per flush")
		minMux   = flag.Float64("min-mux-gain", 0, "with -exp connmux: exit non-zero if pipelined throughput over the sync baseline is below this ratio, or if the goroutine count is not O(pool) (0 = report only)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		mtxProf  = flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
		blkProf  = flag.String("blockprofile", "", "write a blocking profile to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mtxProf)
	}
	if *blkProf != "" {
		runtime.SetBlockProfileRate(int(100_000)) // sample blocks >= 100µs
		defer writeProfile("block", *blkProf)
	}

	cfg := bench.Config{
		Seconds:        *seconds,
		MaxWorkers:     *workers,
		SlotsPerWorker: *slots,
		WALSync:        *walSync,
		Out:            os.Stdout,
	}

	var err error
	switch *exp {
	case "all":
		err = bench.RunAll(cfg)
	case "1":
		_, err = bench.Exp1TpmC(cfg)
	case "2":
		_, err = bench.Exp2Scalability(cfg)
	case "3":
		_, err = bench.Exp3WALFlush(cfg)
	case "4":
		_, err = bench.Exp4DiskIO(cfg)
	case "5":
		_, err = bench.Exp5BufferSize(cfg)
	case "6":
		_, err = bench.Exp6CoroutineVsThread(cfg)
	case "7":
		_, err = bench.Exp7Breakdown(cfg)
	case "8":
		_, err = bench.Exp8VsBaseline(cfg)
	case "9":
		_, err = bench.Exp9ODB(cfg)
	case "ablations":
		if _, err = bench.AblationRFA(cfg); err == nil {
			_, err = bench.AblationHybridLock(cfg)
		}
	case "overhead":
		var res bench.OverheadResult
		if res, err = bench.ExpOverhead(cfg); err == nil &&
			*maxOver > 0 && res.RegressionPct > *maxOver {
			fmt.Fprintf(os.Stderr, "instrumentation overhead %.1f%% exceeds budget %.1f%%\n",
				res.RegressionPct, *maxOver)
			return 1
		}
	case "scale":
		var res bench.ScaleResult
		if res, err = bench.ExpScale(cfg); err == nil &&
			*minScale > 0 && res.Ratio < *minScale {
			fmt.Fprintf(os.Stderr, "%d-worker scaling %.2fx is below the %.2fx floor\n",
				res.Workers, res.Ratio, *minScale)
			return 1
		}
	case "connmux":
		var res bench.ConnMuxResult
		if res, err = bench.ExpConnMux(cfg, *conns, *pipeline); err == nil && *minMux > 0 {
			if res.Gain < *minMux {
				fmt.Fprintf(os.Stderr, "connection-mux pipelining gain %.2fx is below the %.2fx floor\n",
					res.Gain, *minMux)
				return 1
			}
			// On Linux idle connections park in epoll, so the goroutine
			// count must stay O(pool + pumps), not O(connections).
			if runtime.GOOS == "linux" && res.Conns >= 1000 && res.PeakGoroutines > res.Conns/2 {
				fmt.Fprintf(os.Stderr, "peak goroutine count %d is not O(pool) for %d connections\n",
					res.PeakGoroutines, res.Conns)
				return 1
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	return 0
}

// writeProfile flushes a named runtime profile at exit.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	defer f.Close()
	if p := pprof.Lookup(name); p != nil {
		if err := p.WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}
