package phoebedb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
)

// TestCommitIsOneInstant: transfers move money between accounts while
// auditors sum every balance. A 1ms sleep before each WAL sync holds every
// commit between drawing its timestamp and becoming durable, the window in
// which a snapshot at or above that timestamp could see the before image
// first and the after image later. Every read path must see the total
// conserved: the aggregate fold over page strips, the row-emitting scan,
// and per-row Get. A RepeatableRead auditor reads all three under one
// snapshot; a ReadCommitted auditor checks each single-statement read.
func TestCommitIsOneInstant(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.WALPreSync, "sleep(1ms)"); err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, Options{Workers: 2, SlotsPerWorker: 4, LockTimeout: 5 * time.Second})
	if err := db.CreateTable("acct", NewSchema(
		Column{Name: "id", Type: TInt64},
		Column{Name: "bal", Type: TInt64},
	)); err != nil {
		t.Fatal(err)
	}
	const accounts, balance = 16, 100
	const total = accounts * balance
	rids := make([]RowID, accounts)
	if err := db.Execute(func(tx *Tx) error {
		for i := range rids {
			rid, err := tx.Insert("acct", Row{Int(int64(i)), Int(balance)})
			if err != nil {
				return err
			}
			rids[i] = rid
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sumAgg := func(tx *Tx) (int64, error) {
		vals, _, err := tx.AggTableFiltered("acct", nil, []rel.AggSpec{{Op: rel.AggOpSum, Col: 1}})
		if err != nil {
			return 0, err
		}
		return vals[0].I, nil
	}
	sumScan := func(tx *Tx) (int64, error) {
		var sum int64
		err := tx.ScanTable("acct", func(_ RowID, row Row) bool {
			sum += row[1].I
			return true
		})
		return sum, err
	}
	sumGet := func(tx *Tx) (int64, error) {
		var sum int64
		for _, rid := range rids {
			row, ok, err := tx.Get("acct", rid)
			if err != nil || !ok {
				return 0, err
			}
			sum += row[1].I
		}
		return sum, nil
	}

	var stop atomic.Bool
	var audits atomic.Int64
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	audit := func(iso Isolation, reads map[string]func(*Tx) (int64, error)) {
		for !stop.Load() {
			err := db.ExecuteIso(iso, func(tx *Tx) error {
				for name, read := range reads {
					sum, err := read(tx)
					if err != nil {
						return err
					}
					if sum != total {
						fail("%v auditor: %s read a total of %d, want %d", iso, name, sum, total)
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			audits.Add(1)
		}
	}
	var auditors sync.WaitGroup
	for _, a := range []struct {
		iso   Isolation
		reads map[string]func(*Tx) (int64, error)
	}{
		{RepeatableRead, map[string]func(*Tx) (int64, error){"the aggregate fold": sumAgg, "the scan": sumScan, "per-row Get": sumGet}},
		{ReadCommitted, map[string]func(*Tx) (int64, error){"the aggregate fold": sumAgg, "the scan": sumScan}},
	} {
		auditors.Add(1)
		go func() {
			defer auditors.Done()
			audit(a.iso, a.reads)
		}()
	}

	const movers, transfers = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < movers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from, to := (w*7+i*3)%accounts, (w*5+i*11+1)%accounts
				if from == to {
					continue
				}
				lo, hi := min(from, to), max(from, to)
				amount := int64(1 + (w+i)%9)
				if from > to {
					amount = -amount // move from hi to lo instead
				}
				if err := db.Execute(func(tx *Tx) error {
					// Rows are written in rid order, so transfers never
					// wait on each other in a cycle.
					for _, d := range []struct {
						rid   RowID
						delta int64
					}{{rids[lo], -amount}, {rids[hi], amount}} {
						if _, err := tx.Modify("acct", d.rid, func(cur Row) (map[string]Value, error) {
							return map[string]Value{"bal": Int(cur[1].I + d.delta)}, nil
						}); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	auditors.Wait()
	if audits.Load() == 0 {
		t.Fatal("no audit completed")
	}
	t.Logf("%d audits, %d commit-dependency waits", audits.Load(), db.Engine().Stats().CommitDepWaits.Load())
}
