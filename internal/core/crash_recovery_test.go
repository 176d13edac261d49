package core_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/fault/crashtest"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// crashSeed returns the deterministic base seed for crash tests; override
// with PHOEBE_CRASHTEST_SEED to explore other schedules. Failures always
// report the seed in use.
func crashSeed(t *testing.T) int64 {
	if s := os.Getenv("PHOEBE_CRASHTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PHOEBE_CRASHTEST_SEED %q: %v", s, err)
		}
		return v
	}
	return 0xC0FFEE
}

// TestCrashRecoveryAtSites crashes the engine at every registered crash
// site — WAL pre/post-sync, a torn WAL tail, the three checkpoint
// windows, buffer eviction, and the data-page write — then recovers and
// verifies the durability contract (see the crashtest package).
func TestCrashRecoveryAtSites(t *testing.T) {
	seed := crashSeed(t)
	for i, site := range fault.CrashSites() {
		site, i := site, i
		t.Run(site, func(t *testing.T) {
			cfg := crashtest.Config{
				Dir:  t.TempDir(),
				Site: site,
				Seed: seed + int64(i),
				Logf: t.Logf,
			}
			rep, err := crashtest.Run(cfg)
			if err != nil {
				t.Fatalf("site %s (seed %d): %v", site, cfg.Seed, err)
			}
			if rep.Acked == 0 {
				t.Fatalf("site %s (seed %d): no transaction committed before the crash", site, cfg.Seed)
			}
		})
	}
}

// TestCrashRecoveryWithWarmCheckpoint reruns a subset of sites with a
// successful checkpoint taken mid-workload, so recovery must combine the
// checkpoint image with the post-checkpoint log suffix. For the
// checkpoint sites this makes the crashing checkpoint the second one.
func TestCrashRecoveryWithWarmCheckpoint(t *testing.T) {
	seed := crashSeed(t)
	sites := []string{
		fault.WALPreSync,
		fault.WALTornWrite,
		fault.CheckpointPostSave,
		fault.CheckpointPreTruncate,
		fault.CheckpointPreRemove,
	}
	for i, site := range sites {
		site, i := site, i
		t.Run(site, func(t *testing.T) {
			cfg := crashtest.Config{
				Dir:            t.TempDir(),
				Site:           site,
				Seed:           seed + 1000 + int64(i),
				WarmCheckpoint: true,
				Logf:           t.Logf,
			}
			rep, err := crashtest.Run(cfg)
			if err != nil {
				t.Fatalf("site %s (seed %d): %v", site, cfg.Seed, err)
			}
			if rep.Acked == 0 {
				t.Fatalf("site %s (seed %d): no transaction committed before the crash", site, cfg.Seed)
			}
		})
	}
}

// TestCheckpointCrashWindows is the hand-rolled regression for the two
// checkpoint crash windows: a crash after the checkpoint image is durable
// but before the old log files are removed (before or after the log's
// rotation) must not replay (duplicate) rows the image already holds, and a crash before the image is written must lose
// nothing. Unlike the randomized harness this uses a known row set, so
// lost and duplicated rows are distinguishable by exact count.
func TestCheckpointCrashWindows(t *testing.T) {
	for _, site := range []string{
		fault.CheckpointPreSave,
		fault.CheckpointPostSave,
		fault.CheckpointPreTruncate,
		fault.CheckpointPreRemove,
	} {
		site := site
		t.Run(site, func(t *testing.T) {
			fault.Reset()
			defer fault.Reset()
			dir := t.TempDir()
			open := func() *core.Engine {
				e, err := core.Open(core.Config{Dir: dir, Slots: 2, WALSync: true})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.CreateTable("t", rel.NewSchema(
					rel.Column{Name: "k", Type: rel.TInt64},
					rel.Column{Name: "v", Type: rel.TInt64},
				)); err != nil {
					t.Fatal(err)
				}
				if _, err := e.CreateIndex("t", "t_k", []string{"k"}, true); err != nil {
					t.Fatal(err)
				}
				return e
			}
			put := func(e *core.Engine, k, v int64) {
				tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
				if _, err := tx.Insert("t", rel.Row{rel.Int(k), rel.Int(v)}); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit %d: %v", k, err)
				}
			}

			e := open()
			for k := int64(0); k < 20; k++ {
				put(e, k, k*10)
			}
			// First checkpoint succeeds; the next 20 rows live only in
			// the post-checkpoint WAL suffix.
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("first checkpoint: %v", err)
			}
			for k := int64(20); k < 40; k++ {
				put(e, k, k*10)
			}
			if err := fault.Enable(site, "panic"); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); !fault.IsCrash(r) {
						t.Fatalf("checkpoint did not crash at %s (recover=%v)", site, r)
					}
				}()
				e.Checkpoint()
			}()
			fault.Reset()
			// Abandon e; reopen and recover.
			e2 := open()
			defer e2.Close()
			if _, err := e2.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			tx := e2.Begin(0, txn.ReadCommitted, nil, nil, nil)
			defer tx.Commit()
			seen := make(map[int64]int64)
			err := tx.ScanTable("t", func(rid rel.RowID, row rel.Row) bool {
				k := row[0].I
				if old, dup := seen[k]; dup {
					t.Fatalf("key %d duplicated after recovery (values %d, %d)", k, old, row[1].I)
				}
				seen[k] = row[1].I
				return true
			})
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if len(seen) != 40 {
				t.Fatalf("recovered %d rows, want 40 (lost or duplicated)", len(seen))
			}
			for k := int64(0); k < 40; k++ {
				if seen[k] != k*10 {
					t.Fatalf("key %d recovered value %d, want %d", k, seen[k], k*10)
				}
			}
		})
	}
}

// TestTPCCCrashConsistency crashes a concurrent TPC-C run mid-commit and
// verifies the benchmark's consistency conditions after recovery.
func TestTPCCCrashConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("tpcc crash run skipped in -short")
	}
	seed := crashSeed(t)
	start := time.Now()
	if err := crashtest.TPCCCrash(t.TempDir(), seed, fault.WALPreSync, 200); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("tpcc crash+recover+consistency in %v (seed %d)", time.Since(start), seed)
}
