package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binary string

// TestMain builds the benchmark once; the hygiene tests run it as the
// driver does, as a process of its own.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "phoebebench-test-")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "phoebebench")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBinary runs the benchmark in its own process group, so that anything
// it might leave behind can be found afterwards by that group's id.
func runBinary(t *testing.T, args ...string) (stdout, stderr string, exit int, pgid int) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid = cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		syscall.Kill(-pgid, syscall.SIGKILL)
		t.Fatalf("benchmark hung; stderr:\n%s", se.String())
	}
	return so.String(), se.String(), exit, pgid
}

// processesInGroup lists live processes whose process group is pgid.
func processesInGroup(t *testing.T, pgid int) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for _, f := range stats {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // exited while we were looking
		}
		// pid (comm) state ppid pgrp ...; comm may hold spaces.
		rest := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(rest) > 2 && rest[2] == strconv.Itoa(pgid) {
			live = append(live, f)
		}
	}
	return live
}

func assertNothingLeft(t *testing.T, dir string, pgid int, stderr string) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
	if live := processesInGroup(t, pgid); len(live) > 0 {
		t.Errorf("processes left running: %v", live)
	}
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("benchmark did not report its listener; stderr:\n%s", stderr)
	}
	if c, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections", m[1])
	}
}

func TestSmokeRunLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"tpcc", "cold_read"} {
		stdout, stderr, exit, pgid := runBinary(t, "-workload", w, "-smoke", "-seconds", "1", "-seed", "3", "-dir", dir)
		if exit != 0 {
			t.Fatalf("%s: exit %d; stderr:\n%s", w, exit, stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", w, err, stdout)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEndMetrics {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v", w, d.name, m)
			}
		}
		assertNothingLeft(t, dir, pgid, stderr)
	}
}

func TestTracedSmokeRun(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, exit, _ := runBinary(t, "-workload", "point_update", "-smoke", "-seconds", "1", "-trace", "1", "-dir", dir)
	if exit != 0 {
		t.Fatalf("exit %d; stderr:\n%s", exit, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res struct{ Metrics map[string]metric }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	// The three layers of the ladder add up to the client's round trip.
	sum := res.Metrics["wire.self_us_per_op"].Value + res.Metrics["sql.self_us_per_op"].Value +
		res.Metrics["core.kernel_us_per_op"].Value
	var spans []ladderSpan
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	var client []int64
	for _, s := range spans {
		if s.Name == "client" {
			client = append(client, int64((s.EndUS-s.StartUS)*1e3))
		}
	}
	if len(client) != workloadByName("point_update").ladderOps/smokeShrink {
		t.Errorf("trace.json holds %d client spans", len(client))
	}
	slices.Sort(client)
	if med := quantile(client, 0.5) / 1e3; math.Abs(sum-med) > 0.05*med {
		t.Errorf("layers sum to %.1f us, client median is %.1f us", sum, med)
	}
}

func TestWatchdogExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	stdout, stderr, exit, pgid := runBinary(t, "-workload", "point_read", "-smoke", "-seconds", "30",
		"-deadline", "2s", "-dir", dir)
	if exit == 0 {
		t.Fatalf("exit 0 after %v despite a 2s deadline", time.Since(start))
	}
	if strings.Contains(stdout, `"metrics"`) {
		t.Errorf("a result was printed:\n%s", stdout)
	}
	assertNothingLeft(t, dir, pgid, stderr)
}

// streamHash digests every connection's operation stream.
func streamHash(w *workload, seed int64, shrink int) uint64 {
	h := fnv.New64a()
	for _, s := range w.scripts(seed, shrink) {
		s.hashInto(h)
	}
	return h.Sum64()
}

func TestSeedDeterminesStreams(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 7, 10), streamHash(w, 7, 10), streamHash(w, 8, 10)
		if a != b {
			t.Errorf("%s: seed 7 gave %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %x", w.name, a)
		}
	}
}

// TestTimedLoopNeitherFormatsNorDraws checks, in the source, that what the
// connections execute inside a window calls neither fmt's formatters nor a
// random source (fmt.Errorf on a failure path ends the run and is allowed).
func TestTimedLoopNeitherFormatsNorDraws(t *testing.T) {
	timed := map[string]bool{"wire": true, "answered": true, "done": true, "runTxn": true, "findCustomer": true,
		"newOrder": true, "payment": true, "orderStatus": true, "delivery": true, "stockLevel": true,
		"Begin": true, "Exec": true, "Commit": true, "Rollback": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !timed[fn.Name.Name] || fn.Body == nil {
					continue
				}
				seen++
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "rand" || id.Name == "fmt" && sel.Sel.Name != "Errorf") {
						t.Errorf("%s calls %s.%s inside the timed loop", fn.Name.Name, id.Name, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	if seen < 12 {
		t.Errorf("only %d of the timed functions were found; the list is stale", seen)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v, code has %s", i, spec.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4): for
// these ten values Python gives quartiles 2.75 and 8.25 around median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 4, 10, 5, 9, 2, 6, 8, 7}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareRefusesDifferentFlushPolicies(t *testing.T) {
	dir := t.TempDir()
	rec := func(name string, walsync bool, ops float64) string {
		r := &record{Config: recordConfig{Workload: "point_update", WALSync: walsync},
			Metrics: withUnits(endToEndMetrics, map[string]float64{"ops_per_s": ops, "lat_p50_us": 1, "cpu_us_per_op": 1,
				"write_bytes_per_op": 1, "alloc_bytes_per_op": 1, "peak_rss_mb": 1, "setup_s": 1})}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	synced, faster, unsynced := rec("a.json", true, 1000), rec("b.json", true, 1010), rec("c.json", false, 9000)
	if code := compareRecords([]string{synced, faster}); code != 0 {
		t.Errorf("comparable records within bounds: exit %d", code)
	}
	if code := compareRecords([]string{synced, unsynced}); code != 2 {
		t.Errorf("records with different walsync were compared: exit %d", code)
	}
	if code := compareRecords([]string{faster, rec("d.json", true, 500)}); code != 1 {
		t.Errorf("a halved throughput did not breach its bound: exit %d", code)
	}
}
