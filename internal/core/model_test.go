package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"phoebedb/internal/rel"
)

// TestRandomOpsAgainstModel drives the engine with a randomized sequence
// of inserts, updates, deletes, commits, and rollbacks (interspersed with
// GC, freezing, and buffer maintenance) and checks every committed state
// against an in-memory model keyed by the logical primary key. Rows are
// addressed through the unique index because updates to frozen rows
// legitimately relocate them to fresh row_ids (§5.2 case 3).
func TestRandomOpsAgainstModel(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 8, BufferBytes: 256 * 1024, PageSize: 8 * 1024})
	setupAccounts(t, e)
	rng := rand.New(rand.NewSource(2025))

	model := map[int64]rel.Row{} // committed state by account id
	var liveKeys []int64
	nextKey := int64(0)

	lookup := func(tx *Tx, key int64) (rel.RowID, bool) {
		rid, _, found, err := tx.GetByIndex("accounts", "accounts_pk", rel.Int(key))
		if err != nil {
			t.Fatalf("lookup %d: %v", key, err)
		}
		return rid, found
	}

	const rounds = 60
	for round := 0; round < rounds; round++ {
		tx := begin(e, 0)
		pending := map[int64]rel.Row{} // this txn's writes by key
		var pendingDel []int64
		nOps := rng.Intn(6) + 1
		for op := 0; op < nOps; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert
				nextKey++
				row := acct(int(nextKey), fmt.Sprintf("o%d", nextKey), float64(rng.Intn(1000)))
				if _, err := tx.Insert("accounts", row); err != nil {
					t.Fatalf("round %d insert: %v", round, err)
				}
				pending[nextKey] = row
			case 4, 5, 6: // update a committed row
				if len(liveKeys) == 0 {
					continue
				}
				key := liveKeys[rng.Intn(len(liveKeys))]
				if hasDel(pendingDel, key) {
					continue
				}
				rid, found := lookup(tx, key)
				if !found {
					t.Fatalf("round %d: live key %d not found", round, key)
				}
				bal := rel.Float(float64(rng.Intn(100000)))
				err := tx.Update("accounts", rid, map[string]rel.Value{"balance": bal})
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatalf("round %d update: %v", round, err)
				}
				base, ok := pending[key]
				if !ok {
					base = model[key].Clone()
				}
				base[2] = bal
				pending[key] = base
			case 7, 8: // delete a committed row
				if len(liveKeys) == 0 {
					continue
				}
				key := liveKeys[rng.Intn(len(liveKeys))]
				if hasDel(pendingDel, key) {
					continue
				}
				rid, found := lookup(tx, key)
				if !found {
					t.Fatalf("round %d: live key %d not found for delete", round, key)
				}
				err := tx.Delete("accounts", rid)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatalf("round %d delete: %v", round, err)
				}
				pendingDel = append(pendingDel, key)
				delete(pending, key)
			case 9: // read your own writes
				for key, want := range pending {
					_, got, found, err := tx.GetByIndex("accounts", "accounts_pk", rel.Int(key))
					if err != nil || !found || !got.Equal(want) {
						t.Fatalf("round %d: own write mismatch at key %d: (%v,%v,%v)", round, key, got, found, err)
					}
				}
			}
		}
		if rng.Intn(4) == 0 {
			tx.Rollback()
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatalf("round %d commit: %v", round, err)
			}
			for key, row := range pending {
				if _, existed := model[key]; !existed {
					liveKeys = append(liveKeys, key)
				}
				model[key] = row
			}
			for _, key := range pendingDel {
				delete(model, key)
				for i, k := range liveKeys {
					if k == key {
						liveKeys = append(liveKeys[:i], liveKeys[i+1:]...)
						break
					}
				}
			}
		}
		switch rng.Intn(6) {
		case 0:
			e.CollectGarbage()
		case 1:
			e.Pool.Maintain(0)
		case 2:
			e.CollectGarbage()
			e.FreezeTables(1, 1<<20)
		}
		if round%10 == 9 {
			verifyModel(t, e, model, round)
		}
	}
	verifyModel(t, e, model, rounds)
}

func hasDel(dels []int64, key int64) bool {
	for _, d := range dels {
		if d == key {
			return true
		}
	}
	return false
}

func verifyModel(t *testing.T, e *Engine, model map[int64]rel.Row, round int) {
	t.Helper()
	r := begin(e, 1)
	defer r.Rollback()
	seen := map[int64]bool{}
	err := r.ScanTable("accounts", func(rid rel.RowID, row rel.Row) bool {
		key := row[0].I
		want, ok := model[key]
		if !ok {
			t.Fatalf("round %d: phantom row %d: %v", round, key, row)
		}
		if !row.Equal(want) {
			t.Fatalf("round %d: key %d = %v, want %v", round, key, row, want)
		}
		if seen[key] {
			t.Fatalf("round %d: key %d appears twice in scan", round, key)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatalf("round %d scan: %v", round, err)
	}
	if len(seen) != len(model) {
		t.Fatalf("round %d: scan saw %d rows, model has %d", round, len(seen), len(model))
	}
	for key, want := range model {
		_, got, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(key))
		if err != nil || !found || !got.Equal(want) {
			t.Fatalf("round %d: index read key %d = (%v,%v,%v), want %v", round, key, got, found, err, want)
		}
	}
}

// TestWarmQueueProcessing exercises the read-triggered warming path:
// frozen blocks crossing the read threshold are queued and re-inserted
// into hot storage by the maintenance slot.
func TestWarmQueueProcessing(t *testing.T) {
	e := openTestEngine(t, Config{PageCap: 4, Slots: 8})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 12; i++ {
		w.Insert("accounts", acct(i, "cold", float64(i)))
	}
	w.Commit()
	e.CollectGarbage()
	if _, err := e.FreezeTables(2, 1<<20); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Table("accounts")
	tbl.Frozen.WarmThreshold = 3
	frontier := tbl.Store.MaxFrozenRowID()
	if frontier == 0 {
		t.Fatal("nothing frozen")
	}
	// Hammer reads on a frozen row until its block crosses the threshold.
	for i := 0; i < 5; i++ {
		r := begin(e, 0)
		if _, ok, err := r.Get("accounts", 1); !ok || err != nil {
			t.Fatalf("frozen read = (%v,%v)", ok, err)
		}
		r.Rollback()
	}
	// Slot 7 acts as the idle system slot.
	n, err := e.ProcessWarmQueue(7)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("warm queue empty despite hot frozen block")
	}
	// The warmed rows live in hot storage now with fresh rids; the data
	// is intact and reachable via the index, and the frozen copies are
	// dead.
	r := begin(e, 0)
	defer r.Rollback()
	for i := 1; i <= 12; i++ {
		_, row, found, err := r.GetByIndex("accounts", "accounts_pk", rel.Int(int64(i)))
		if err != nil || !found {
			t.Fatalf("row %d after warming: (%v,%v)", i, found, err)
		}
		if row[2].F != float64(i) {
			t.Fatalf("row %d value %v", i, row[2])
		}
	}
	if _, stillFrozen, _ := tbl.Frozen.Get(1, nil); stillFrozen {
		t.Fatal("warmed row still live in the frozen layer")
	}
	count := 0
	r.ScanTable("accounts", func(rel.RowID, rel.Row) bool { count++; return true })
	if count != 12 {
		t.Fatalf("count = %d after warming", count)
	}
}
