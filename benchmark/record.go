package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is one run on disk: what was measured, and the configuration and
// environment it was measured under.
type record struct {
	Config    recordConfig      `json:"config"`
	Env       recordEnv         `json:"env"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	// Samples is the number of latencies behind the percentiles.
	Samples int64 `json:"samples"`
	// Slices is successful operations per one-second slice of the window.
	Slices []int64 `json:"slices"`
}

// recordConfig is everything that must match before two records may be
// compared: the flush policy above all (a run with fsync off is a
// different experiment, not a faster one). The four engine settings are the
// phoebedb.Options values the run passed to Open, read back from that very
// struct; 0 means the field was left to the engine's default at env.git_sha.
type recordConfig struct {
	Workload          string           `json:"workload"`
	Trace             bool             `json:"trace"`
	Connections       int              `json:"connections"`
	Depth             int              `json:"depth"`
	WindowS           int              `json:"window_s"`
	WarmupMS          int64            `json:"warmup_ms"`
	SliceMS           int64            `json:"slice_ms"`
	SetupReps         int              `json:"setup_reps"`
	WALSync           bool             `json:"walsync"`
	GroupCommitWaitUS int64            `json:"group_commit_wait_us"`
	BufferBytes       int64            `json:"buffer_bytes"`
	ColdCacheBytes    int64            `json:"cold_cache_bytes"`
	DirFS             string           `json:"dir_fs"`
	Restarted         bool             `json:"restarted"`
	Shrink            int              `json:"shrink"`
	Sizes             map[string]int64 `json:"sizes"`
}

// recordEnv may differ between comparable records.
type recordEnv struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func newRecord(cfg runConfig, e *env, windowS int) *record {
	w := cfg.workload
	opts := options(e.dir, w)
	return &record{
		Config: recordConfig{
			Workload: w.name, Trace: cfg.trace, Connections: connections, Depth: w.depth,
			WindowS: windowS, WarmupMS: cfg.warmup.Milliseconds(), SliceMS: sliceLen.Milliseconds(),
			SetupReps: cfg.setupReps(), WALSync: opts.WALSync, GroupCommitWaitUS: opts.GroupCommitWait.Microseconds(),
			BufferBytes: opts.BufferBytes, ColdCacheBytes: opts.ColdCacheBytes, DirFS: fsName(e.dir),
			Restarted: w.restart, Shrink: cfg.shrink, Sizes: w.sizes,
		},
		Env: recordEnv{
			GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Time: time.Now().UTC().Format(time.RFC3339),
		},
	}
}

func (r *record) fill(win *window) {
	r.Attempted, r.Failed = win.ops()+win.failed, win.failed
	r.Samples, r.Slices = int64(len(win.primaryLat)), win.slices
}

// gitSHA reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *record) fileName() string {
	trace := 0
	if r.Config.Trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", r.Config.Workload, r.Env.Seed, trace)
}

// loadRecords reads one record file, or every *.json in a directory.
func loadRecords(path string) ([]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []*record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := new(record)
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles computed as Python's
// statistics.quantiles(v, n=4) computes them.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}

// compareRecords prints, for every workload and end-to-end metric, the two
// sets' medians, how much worse the second is than the first, each set's
// spread, and the bound; it returns 1 when a bound is breached and refuses
// to compare sets whose configurations differ.
func compareRecords(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two arguments, each a record file or a directory of records")
		return 2
	}
	var sets [2][]*record
	for i, a := range args {
		rs, err := loadRecords(a)
		if err != nil || len(rs) == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: no records in %s: %v\n", a, err)
			return 2
		}
		sets[i] = rs
	}
	configs := map[string]recordConfig{}
	values := map[string]*[2][]float64{} // "workload metric" -> values per set
	for i, rs := range sets {
		for _, r := range rs {
			if r.Config.Trace {
				continue
			}
			if c, seen := configs[r.Config.Workload]; !seen {
				configs[r.Config.Workload] = r.Config
			} else if !reflect.DeepEqual(c, r.Config) {
				fmt.Fprintf(os.Stderr, "benchmark: refusing to compare %s records with different configurations:\n  %+v\n  %+v\n",
					r.Config.Workload, c, r.Config)
				return 2
			}
			for name, m := range r.Metrics {
				key := r.Config.Workload + " " + name
				if values[key] == nil {
					values[key] = new([2][]float64)
				}
				values[key][i] = append(values[key][i], m.Value)
			}
		}
	}
	breached := 0
	fmt.Printf("%-14s %-20s %3s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "n", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			v := values[w.name+" "+d.name]
			if v == nil || len(v[0]) == 0 || len(v[1]) == 0 {
				continue
			}
			a, b := median(v[0]), median(v[1])
			worse := (b - a) / a
			if d.better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > d.bound {
				flag = "  BREACH"
				breached++
			}
			sa, sb := spread(v[0]), spread(v[1])
			if sa > d.bound || sb > d.bound {
				flag += "  NOISY"
				breached++
			}
			fmt.Printf("%-14s %-20s %3d %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, d.name, len(v[0])+len(v[1]), a, b, 100*worse, 100*sa, 100*sb, 100*d.bound, flag)
		}
	}
	if breached > 0 {
		return 1
	}
	return 0
}
