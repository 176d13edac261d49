// Command temperature walks a dataset through PhoebeDB's three storage
// layers (§5.2): rows are born hot in Main Storage, cool and get evicted to
// the Data Page File under buffer pressure, freeze into compressed blocks
// in the Data Block File, serve analytical scans from the frozen layer
// without warming anything, and come back to hot storage when written.
package main

import (
	"fmt"
	"log"
	"os"

	phoebedb "phoebedb"
)

const events = 3000

func main() {
	dir, err := os.MkdirTemp("", "phoebe-temperature-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A deliberately tiny buffer so eviction and freezing kick in.
	db, err := phoebedb.Open(phoebedb.Options{
		Dir:            dir,
		Workers:        1,
		SlotsPerWorker: 4,
		BufferBytes:    128 * 1024,
		PageSize:       8 * 1024,
		PageCap:        32,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db.CreateTable("events", phoebedb.NewSchema(
		phoebedb.Column{Name: "id", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "kind", Type: phoebedb.TString},
		phoebedb.Column{Name: "amount", Type: phoebedb.TFloat64},
	)))
	must(db.CreateIndex("events", "events_pk", []string{"id"}, true))

	// Phase 1: ingest a time-ordered event stream (hot writes).
	for start := 0; start < events; start += 500 {
		end := start + 500
		if end > events {
			end = events
		}
		lo, hi := start, end
		must(db.Execute(func(tx *phoebedb.Tx) error {
			for i := lo; i < hi; i++ {
				kind := "purchase"
				if i%3 == 0 {
					kind = "refund"
				}
				if _, err := tx.Insert("events", phoebedb.Row{
					phoebedb.Int(int64(i)), phoebedb.Str(kind), phoebedb.Float(float64(i%97) + 0.5),
				}); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	st := db.Stats()
	fmt.Printf("phase 1: ingested %d events; %d bytes resident in Main Storage\n", events, st.BufferResidentBytes)

	// Phase 2: GC the UNDO history so pages are unpinned, let the buffer
	// manager cool and evict under its tiny budget.
	db.CollectGarbage()
	for i := 0; i < 40; i++ {
		db.Engine().Pool.Maintain(0)
	}
	st = db.Stats()
	fmt.Printf("phase 2: after page swaps — resident %d bytes, data file writes %d bytes (cold layer in use)\n",
		st.BufferResidentBytes, st.DataWriteBytes)

	// Phase 3: freeze the cold prefix into compressed blocks.
	frozen, err := db.Freeze(1000, 1<<20)
	must(err)
	tbl, _ := db.Engine().Table("events")
	cold := tbl.Frozen.Stats()
	fmt.Printf("phase 3: froze %d rows into %d compressed blocks in %d segments (%d bytes on disk, frontier row_id %d)\n",
		frozen, cold.Blocks, cold.Segments, tbl.Frozen.CompressedBytes(), tbl.Store.MaxFrozenRowID())

	// Phase 4: an analytical scan across frozen + hot, computing an
	// aggregate. Table scans do not warm frozen data (§5.2).
	var purchases, refunds int
	var revenue float64
	must(db.Execute(func(tx *phoebedb.Tx) error {
		return tx.ScanTable("events", func(rid phoebedb.RowID, row phoebedb.Row) bool {
			if row[1].S == "purchase" {
				purchases++
				revenue += row[2].F
			} else {
				refunds++
			}
			return true
		})
	}))
	fmt.Printf("phase 4: OLAP scan over all layers — %d purchases (%.2f revenue), %d refunds\n",
		purchases, revenue, refunds)

	// Phase 5: a write to a frozen row warms it back into hot storage with
	// a fresh row_id; the index follows.
	var oldRID, newRID phoebedb.RowID
	must(db.Execute(func(tx *phoebedb.Tx) error {
		rid, _, found, err := tx.GetByIndex("events", "events_pk", phoebedb.Int(0))
		if err != nil || !found {
			return fmt.Errorf("event 0 missing: %v", err)
		}
		oldRID = rid
		return tx.Update("events", rid, map[string]phoebedb.Value{"amount": phoebedb.Float(999.99)})
	}))
	must(db.Execute(func(tx *phoebedb.Tx) error {
		rid, row, found, err := tx.GetByIndex("events", "events_pk", phoebedb.Int(0))
		if err != nil || !found {
			return fmt.Errorf("warmed event missing: %v", err)
		}
		newRID = rid
		fmt.Printf("phase 5: updating frozen event 0 warmed it: row_id %d -> %d, amount now %.2f\n",
			oldRID, newRID, row[2].F)
		return nil
	}))

	// Phase 6: completeness check — every event still readable.
	count := 0
	must(db.Execute(func(tx *phoebedb.Tx) error {
		return tx.ScanTable("events", func(rid phoebedb.RowID, row phoebedb.Row) bool {
			count++
			return true
		})
	}))
	fmt.Printf("phase 6: final count %d / %d — no rows lost across hot/cold/frozen transitions\n", count, events)
	if count != events {
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
