// Command replication demonstrates primary-standby high availability (the
// paper's future-work item 2): a primary takes writes while a standby
// ships its WAL in near-real time, serves read-only queries, and is
// promoted to primary after a simulated failure.
//
// This example uses the internal kernel API directly (the standby applies
// below the MVCC layer), which is why it lives beside the library rather
// than on the public facade.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"phoebedb/internal/core"
	"phoebedb/internal/rel"
	"phoebedb/internal/replica"
	"phoebedb/internal/txn"
)

func main() {
	pdir, _ := os.MkdirTemp("", "phoebe-primary-*")
	sdir, _ := os.MkdirTemp("", "phoebe-standby-*")
	defer os.RemoveAll(pdir)
	defer os.RemoveAll(sdir)

	primary, err := core.Open(core.Config{Dir: pdir, Slots: 4})
	must(err)
	must2(primary.CreateTable("events", rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "note", Type: rel.TString},
	)))
	must2(primary.CreateIndex("events", "events_pk", []string{"id"}, true))

	// The standby declares nothing: the primary's catalog records, shipped
	// with its rows, create the table and the index.
	standbyEngine, err := core.Open(core.Config{Dir: sdir, Slots: 4})
	must(err)
	standby := replica.NewStandby(standbyEngine, primary.WAL.Dir())

	// Continuous shipping in the background.
	stop := make(chan struct{})
	go standby.Run(stop, 10*time.Millisecond)

	// The primary takes writes.
	for i := 1; i <= 100; i++ {
		tx := primary.Begin(0, txn.ReadCommitted, nil, nil, nil)
		_, err := tx.Insert("events", rel.Row{rel.Int(int64(i)), rel.Str(fmt.Sprintf("event-%d", i))})
		must(err)
		must(tx.Commit())
	}
	fmt.Println("primary committed 100 events")

	// Wait for the standby to catch up, then read from it.
	for i := 0; i < 200 && standby.Applied() < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	count := countRows(standbyEngine)
	fmt.Printf("standby caught up: %d events visible on read-only replica\n", count)

	// Simulate primary failure: stop shipping and promote.
	close(stop)
	primary.Close()
	must(standby.Promote())
	fmt.Println("primary lost — standby promoted")

	// The new primary accepts writes.
	tx := standbyEngine.Begin(0, txn.ReadCommitted, nil, nil, nil)
	_, err = tx.Insert("events", rel.Row{rel.Int(101), rel.Str("written-after-failover")})
	must(err)
	must(tx.Commit())
	fmt.Printf("new primary serving writes: %d events total\n", countRows(standbyEngine))
	must(standbyEngine.Close())

	// The new primary restarts from its own directory alone.
	restarted, err := core.Open(core.Config{Dir: sdir, Slots: 4})
	must(err)
	_, err = restarted.Recover()
	must(err)
	if n := countRows(restarted); n != 101 {
		log.Fatalf("restarted new primary sees %d events, want 101", n)
	}
	fmt.Println("new primary restarted: 101 events recovered")
	must(restarted.Close())
}

func countRows(e *core.Engine) int {
	tx := e.Begin(3, txn.ReadCommitted, nil, nil, nil)
	defer tx.Rollback()
	n := 0
	tx.ScanTable("events", func(rel.RowID, rel.Row) bool { n++; return true })
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must2[T any](v T, err error) {
	if err != nil {
		log.Fatal(err)
	}
	_ = v
}
