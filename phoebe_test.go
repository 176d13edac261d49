package phoebedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"phoebedb/internal/fault"
)

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.SlotsPerWorker == 0 {
		opts.SlotsPerWorker = 4
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func declareUsers(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTable("users", NewSchema(
		Column{Name: "id", Type: TInt64},
		Column{Name: "name", Type: TString},
		Column{Name: "score", Type: TFloat64},
	)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("users", "users_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteCommitAndReadBack(t *testing.T) {
	db := openTestDB(t, Options{})
	declareUsers(t, db)
	if err := db.Execute(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{Int(1), Str("ada"), Float(10)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var name string
	if err := db.Execute(func(tx *Tx) error {
		_, row, found, err := tx.GetByIndex("users", "users_pk", Int(1))
		if err != nil {
			return err
		}
		if !found {
			return errors.New("not found")
		}
		name = row[1].S
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if name != "ada" {
		t.Fatalf("name = %q", name)
	}
}

func TestExecuteErrorRollsBack(t *testing.T) {
	db := openTestDB(t, Options{})
	declareUsers(t, db)
	boom := errors.New("boom")
	err := db.Execute(func(tx *Tx) error {
		if _, err := tx.Insert("users", Row{Int(1), Str("ghost"), Float(0)}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	db.Execute(func(tx *Tx) error {
		if _, _, found, _ := tx.GetByIndex("users", "users_pk", Int(1)); found {
			t.Error("rolled-back insert visible")
		}
		return nil
	})
}

func TestSessionExplicitControl(t *testing.T) {
	db := openTestDB(t, Options{})
	declareUsers(t, db)
	s, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(RepeatableRead)
	rid, err := tx.Insert("users", Row{Int(5), Str("eve"), Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := s.Begin(ReadCommitted)
	row, ok, err := tx2.Get("users", rid)
	if err != nil || !ok || row[1].S != "eve" {
		t.Fatalf("session read = (%v,%v,%v)", row, ok, err)
	}
	tx2.Rollback()
	// Session slots are bounded: four in all.
	for i := 1; i < 4; i++ {
		if _, err := db.Session(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Session(); err == nil {
		t.Fatal("session limit not enforced")
	}
}

func TestConcurrentExecutes(t *testing.T) {
	db := openTestDB(t, Options{Workers: 2, SlotsPerWorker: 8})
	declareUsers(t, db)
	const n = 200
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = db.Execute(func(tx *Tx) error {
				_, err := tx.Insert("users", Row{Int(int64(i)), Str(fmt.Sprintf("u%d", i)), Float(0)})
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	count := 0
	db.Execute(func(tx *Tx) error {
		return tx.ScanTable("users", func(rid RowID, row Row) bool {
			count++
			return true
		})
	})
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if db.Stats().TasksExecuted < n {
		t.Fatalf("TasksExecuted = %d", db.Stats().TasksExecuted)
	}
}

func TestRecoverAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("users", NewSchema(
		Column{Name: "id", Type: TInt64},
		Column{Name: "name", Type: TString},
		Column{Name: "score", Type: TFloat64},
	))
	db.CreateIndex("users", "users_pk", []string{"id"}, true)
	db.Execute(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{Int(1), Str("persist"), Float(42)})
		return err
	})
	db.Close()

	db2, err := Open(Options{Dir: dir, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.CreateTable("users", NewSchema(
		Column{Name: "id", Type: TInt64},
		Column{Name: "name", Type: TString},
		Column{Name: "score", Type: TFloat64},
	))
	db2.CreateIndex("users", "users_pk", []string{"id"}, true)
	n, err := db2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recovered")
	}
	db2.Execute(func(tx *Tx) error {
		_, row, found, err := tx.GetByIndex("users", "users_pk", Int(1))
		if err != nil || !found || row[2].F != 42 {
			t.Errorf("recovered row = (%v,%v,%v)", row, found, err)
		}
		return nil
	})
}

func TestStatsAndGC(t *testing.T) {
	db := openTestDB(t, Options{})
	declareUsers(t, db)
	db.Execute(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{Int(1), Str("x"), Float(0)})
		return err
	})
	st := db.Stats()
	if st.WALWriteBytes == 0 {
		t.Fatal("no WAL bytes recorded")
	}
	if st.BufferResidentBytes == 0 {
		t.Fatal("no resident bytes recorded")
	}
	db.CollectGarbage() // must not panic
}

func TestFreezeViaFacade(t *testing.T) {
	db := openTestDB(t, Options{PageCap: 4, Workers: 1})
	declareUsers(t, db)
	db.Execute(func(tx *Tx) error {
		for i := 0; i < 20; i++ {
			if _, err := tx.Insert("users", Row{Int(int64(i)), Str("cold"), Float(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	db.CollectGarbage()
	n, err := db.Freeze(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing frozen")
	}
	// Frozen data remains transactionally readable.
	db.Execute(func(tx *Tx) error {
		_, row, found, err := tx.GetByIndex("users", "users_pk", Int(0))
		if err != nil || !found || row[1].S != "cold" {
			t.Errorf("frozen read = (%v,%v,%v)", row, found, err)
		}
		return nil
	})
	if _, err := db.ProcessWarmQueue(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSlotsShareFsyncs: every pool slot, whichever worker owns it,
// commits into the one WAL commit group, so commits arriving together from different
// workers share one device flush instead of paying one fsync each. A 2 ms
// sleep before each sync stands in for a slow device, as in internal/wal's
// group-commit tests: a flush then outlasts the delays other processes on
// the machine put between the clients' commits, so the others arrive
// while it runs and share the next flush. On a fast device the sharing
// the gate counts depended on that scheduling, and a loaded machine could
// push it past the gate.
func TestPoolSlotsShareFsyncs(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.WALPreSync, "sleep(2ms)"); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, Options{WALSync: true, Workers: 4, SlotsPerWorker: 1})
	declareUsers(t, db)
	const clients, perClient = 4, 200
	st := db.Engine().Stats()
	flushes0, commits0 := db.Engine().WAL.Flushes(), st.Commits.Load()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient && errs[c] == nil; i++ {
				errs[c] = db.Execute(func(tx *Tx) error {
					_, err := tx.Insert("users", Row{Int(int64(c*perClient + i)), Str("u"), Float(0)})
					return err
				})
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	flushes, commits := db.Engine().WAL.Flushes()-flushes0, st.Commits.Load()-commits0
	if commits != clients*perClient {
		t.Fatalf("commits = %d, want %d", commits, clients*perClient)
	}
	ratio := float64(flushes) / float64(commits)
	t.Logf("%d WAL flushes for %d commits (%.3f per commit)", flushes, commits, ratio)
	if ratio > 0.6 {
		t.Fatalf("%.3f WAL flushes per commit: concurrent commits on different workers are not sharing fsyncs", ratio)
	}
}

// TestCloseReportsFailedFinalArchive: Close runs one last archive round so
// the archive ends at the log's tail; when that round fails, the archive is
// missing the tail and Close must say so.
func TestCloseReportsFailedFinalArchive(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	db, err := Open(Options{Dir: t.TempDir(), ArchiveDir: t.TempDir(), ArchiveInterval: time.Hour, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	declareUsers(t, db)
	for i := 0; i < 5; i++ {
		if err := db.Execute(func(tx *Tx) error {
			_, err := tx.Insert("users", Row{Int(int64(i)), Str("tail"), Float(0)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fault.Enable(fault.BackupArchiveCopy, "error"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close returned nil after its final archive round failed")
	}
	if n := db.ArchiveErrors(); n != 1 {
		t.Fatalf("archive errors = %d, want 1", n)
	}
}

// TestArchiveLagReportsWedgedArchiver: a log file removed under the
// archiver leaves it unable to read at its position. The lag gauge then
// reads -1, not a caught-up 0, and the failed read counts as an archive
// error.
func TestArchiveLagReportsWedgedArchiver(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, ArchiveDir: t.TempDir(), ArchiveInterval: time.Hour, Workers: 1, SlotsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	declareUsers(t, db)
	if err := db.Execute(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{Int(1), Str("lag"), Float(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	metric := func(name string) int64 {
		t.Helper()
		for _, r := range execOrFatal(t, db, "SELECT name, value FROM phoebe_stat_engine").Rows {
			if r[0].S == name {
				return r[1].I
			}
		}
		t.Fatalf("%s missing from phoebe_stat_engine", name)
		return 0
	}
	if lag := metric("phoebe_archive_lag_bytes"); lag <= 0 {
		t.Fatalf("lag before any archive round = %d, want the log's bytes", lag)
	}
	if err := os.Remove(filepath.Join(dir, "wal", "wal-0000.log")); err != nil {
		t.Fatal(err)
	}
	if lag := metric("phoebe_archive_lag_bytes"); lag != -1 {
		t.Fatalf("lag with the archive's log file gone = %d, want -1", lag)
	}
	if n := metric("phoebe_archive_errors_total"); n < 1 {
		t.Fatalf("archive errors = %d after a failed lag read, want at least 1", n)
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close returned nil although its final archive round cannot read the log")
	}
}
