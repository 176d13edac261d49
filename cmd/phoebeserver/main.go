// Command phoebeserver runs PhoebeDB as a standalone database server:
// it opens a database directory, recovers it, and serves the framed,
// pipelined wire protocol (internal/wire) on a TCP port — the
// production front door with connection multiplexing onto the
// co-routine slot pool and admission control. Drive it with the client
// package:
//
//	$ phoebeserver -dir /var/lib/phoebe -listen :5440 &
//	$ # in Go:
//	c, _ := client.Dial("localhost:5440")
//	c.Exec("CREATE TABLE t (id INT, v STRING)")
//
// Schema persistence: CREATE TABLE and CREATE INDEX are logged in the WAL
// and carried by checkpoint images, so a restart recovers them with the
// data. A schema.sql journal left in the data directory by an earlier
// release is imported once at startup, then removed.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	phoebedb "phoebedb"

	"phoebedb/internal/wire"
)

func main() {
	var (
		dir         = flag.String("dir", "phoebe-data", "database directory")
		listen      = flag.String("listen", "127.0.0.1:5440", "wire-protocol listen address")
		workers     = flag.Int("workers", 0, "worker threads (default GOMAXPROCS)")
		slots       = flag.Int("slots", 32, "task slots per worker")
		walSync     = flag.Bool("walsync", true, "fsync WAL on commit")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. :9187)")
		slowTxn     = flag.Duration("slow-threshold", 0, "log transactions slower than this with a component breakdown (0 disables)")
		archiveDir  = flag.String("archive-dir", "", "continuously archive WAL into this directory (enables online base backups and PITR via phoebectl backup)")

		maxConns    = flag.Int("max-connections", 10000, "connection cap (excess connects get TOO_MANY_CONNECTIONS)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent statement cap (default: pool slots - 2)")
		maxPipeline = flag.Int("max-pipeline", 128, "pipelined statements buffered per connection before the server stops reading it")
		idleTxn     = flag.Duration("idle-txn-timeout", time.Minute, "roll back transactions idle longer than this")
	)
	flag.Parse()

	db, err := phoebedb.Open(phoebedb.Options{
		Dir:              *dir,
		Workers:          *workers,
		SlotsPerWorker:   *slots,
		WALSync:          *walSync,
		SlowTxnThreshold: *slowTxn,
		ArchiveDir:       *archiveDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()

	if n, err := recoverDir(db, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "recover:", err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Printf("recovered %d log records\n", n)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	srv := wire.NewServer(db)
	srv.MaxConnections = *maxConns
	srv.MaxInflight = *maxInflight
	srv.MaxPipeline = *maxPipeline
	srv.IdleTxnTimeout = *idleTxn

	if *slowTxn > 0 {
		db.SlowLog().SetOutput(log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds))
	}
	if *metricsAddr != "" {
		go func() {
			if err := srv.ServeMetrics(*metricsAddr); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (slow log at /slowlog)\n", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("shutting down")
		srv.Shutdown(l)
	}()

	if *archiveDir != "" {
		fmt.Printf("archiving WAL to %s\n", *archiveDir)
	}
	fmt.Printf("phoebeserver listening on %s (data in %s)\n", *listen, *dir)
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// recoverDir recovers db, first importing a schema.sql journal an earlier
// release left: its statements (less revoked ones and a torn last line) are
// declared, Recover logs them, and the file is removed.
func recoverDir(db *phoebedb.DB, dir string) (int, error) {
	path := filepath.Join(dir, "schema.sql")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	for _, q := range wire.LegacyJournal(data) {
		if _, err := db.ExecSQL(q); err != nil {
			return 0, fmt.Errorf("schema.sql: %q: %w", q, err)
		}
	}
	n, err := db.Recover()
	if err == nil && data != nil {
		err = os.Remove(path)
	}
	return n, err
}
