// Command phoebectl is a small interactive shell over the PhoebeDB public
// API: every line is a SQL statement, run by DB.ExecSQL like a query on the
// wire, except for a few engine commands (freeze, gc, stats) — useful for
// poking at a database by hand.
//
//	$ phoebectl -dir /tmp/mydb
//	phoebe> CREATE TABLE users (id INT, name STRING, score FLOAT)
//	phoebe> CREATE UNIQUE INDEX users_pk ON users (id)
//	phoebe> INSERT INTO users VALUES (1, 'ada', 99.5)
//	phoebe> SELECT * FROM users WHERE id = 1
//	phoebe> DELETE FROM users WHERE id = 1
//	phoebe> stats
//	phoebe> quit
//
// -dir names a database directory, created if missing; a later session on
// the same directory recovers its tables, indexes and rows from the log.
//
// It also carries one-shot backup tooling (no shell):
//
//	$ phoebectl backup create  -dir /var/lib/phoebe -archive /backups/phoebe
//	$ phoebectl backup verify  -archive /backups/phoebe
//	$ phoebectl backup restore -archive /backups/phoebe -dest /var/lib/phoebe2 -target-gsn 12345
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	phoebedb "phoebedb"

	"phoebedb/internal/waitevent"
)

func main() {
	// One-shot subcommands run without the interactive shell.
	if len(os.Args) > 1 && os.Args[1] == "backup" {
		if err := runBackup(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	dir := flag.String("dir", "", "database directory (default: temporary)")
	flag.Parse()

	d := *dir
	if d == "" {
		tmp, err := os.MkdirTemp("", "phoebectl-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		d = tmp
	}
	db, err := openDB(d, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("PhoebeDB shell — 'help' for commands")
	for {
		fmt.Print("phoebe> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if err := run(db, os.Stdout, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// openDB opens the database in dir, creating the directory if it does not
// exist, and recovers it: the tables, indexes and rows of earlier sessions
// come back from the log, and the DDL of this one is logged.
func openDB(dir string, w io.Writer) (*phoebedb.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := phoebedb.Open(phoebedb.Options{Dir: dir, Workers: 2, SlotsPerWorker: 4})
	if err != nil {
		return nil, err
	}
	n, err := db.Recover()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	fmt.Fprintf(w, "recovered %d log records\n", n)
	return db, nil
}

// run executes one shell line: an engine command, or else a SQL statement.
func run(db *phoebedb.DB, w io.Writer, line string) error {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "help":
		fmt.Fprintln(w, `commands:
  <SQL statement>   CREATE TABLE, CREATE [UNIQUE] INDEX, INSERT INTO, SELECT,
                    UPDATE, DELETE FROM, EXPLAIN
  freeze            run one freezing round
  gc                run one garbage-collection round
  stats             engine counters
  stats -top [N]    top statements by total time, with wait breakdowns
  quit`)
		return nil
	case "freeze":
		n, err := db.Freeze(64, 1<<20)
		fmt.Fprintln(w, "froze", n, "rows")
		return err
	case "gc":
		fmt.Fprintln(w, "reclaimed", db.CollectGarbage(), "undo records")
		return nil
	case "stats":
		if len(fields) > 1 && (fields[1] == "-top" || fields[1] == "top") {
			n := 10
			if len(fields) > 2 {
				if v, err := strconv.Atoi(fields[2]); err == nil && v > 0 {
					n = v
				}
			}
			return statsTop(db, w, n)
		}
		// Summary line first, then the full registry dump.
		st := db.Stats()
		fmt.Fprintf(w, "txns=%d resident=%dB dataR=%dB dataW=%dB wal=%dB\n\n",
			st.TasksExecuted, st.BufferResidentBytes, st.DataReadBytes, st.DataWriteBytes, st.WALWriteBytes)
		db.Metrics().WriteHuman(w)
		if traces := db.SlowLog().Recent(); len(traces) > 0 {
			fmt.Fprintln(w, "\nrecent slow transactions:")
			db.SlowLog().Dump(w)
		}
		return nil
	}
	return runSQL(db, w, line)
}

// statsTop prints the n statements with the most total time, each with
// its per-wait-event breakdown — the phoebe_stat_statements view.
func statsTop(db *phoebedb.DB, w io.Writer, n int) error {
	snaps := db.StmtStats().Snapshot()
	if len(snaps) == 0 {
		fmt.Fprintln(w, "(no statements recorded)")
		return nil
	}
	if n > 0 && len(snaps) > n {
		snaps = snaps[:n]
	}
	for i, s := range snaps {
		fmt.Fprintf(w, "#%d  %s\n", i+1, s.Text)
		fmt.Fprintf(w, "    calls=%d errors=%d total=%.3fms mean=%.3fms p95=%.3fms rows=%d buf_misses=%d wal_bytes=%d\n",
			s.Calls, s.Errors, float64(s.TotalNanos)/1e6, float64(s.MeanNanos())/1e6,
			float64(s.Hist.Quantile(0.95).Nanoseconds())/1e6, s.Rows, s.BufMisses, s.WALBytes)
		var waits []string
		for e := 1; e < waitevent.NumEvents; e++ {
			if s.WaitNanos[e] == 0 && s.WaitCount[e] == 0 {
				continue
			}
			waits = append(waits, fmt.Sprintf("%s=%.3fms/%d",
				waitevent.Event(e), float64(s.WaitNanos[e])/1e6, s.WaitCount[e]))
		}
		if len(waits) > 0 {
			fmt.Fprintf(w, "    waits: %s\n", strings.Join(waits, " "))
		}
	}
	return nil
}

// runSQL executes a SQL statement and prints its result.
func runSQL(db *phoebedb.DB, w io.Writer, query string) error {
	res, err := db.ExecSQL(query)
	if err != nil {
		return err
	}
	if res.Columns != nil {
		fmt.Fprintln(w, strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(parts, " | "))
		}
		fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))
		return nil
	}
	fmt.Fprintf(w, "ok (%d rows affected)\n", res.Affected)
	return nil
}
