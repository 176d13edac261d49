// Command phoebectl is a small interactive shell over the PhoebeDB public
// API: declare tables and indexes, insert, look up, scan, and inspect
// engine statistics — useful for poking at a database by hand.
//
//	$ phoebectl -dir /tmp/mydb
//	phoebe> create table users (id int, name string, score float)
//	phoebe> create index users_pk on users (id) unique
//	phoebe> insert users 1 ada 99.5
//	phoebe> get users users_pk 1
//	phoebe> scan users
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
		if line == "" {
			continue
		}
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

func run(db *phoebedb.DB, w io.Writer, line string) error {
	fields := strings.Fields(line)
	switch strings.ToLower(fields[0]) {
	case "select", "update", "explain":
		// Full SQL statements route through the SQL layer.
		return runSQL(db, w, line)
	case "help":
		fmt.Fprintln(w, `commands (SQL or shell style):
  any SQL:  CREATE TABLE/INDEX, INSERT INTO, SELECT, UPDATE, DELETE FROM
  sql <statement>   force SQL parsing
  create table <name> (<col> <int|string|float>, ...)
  create index <name> on <table> (<col>, ...) [unique]
  insert <table> <values...>
  get <table> <index> <key values...>
  scan <table>
  delete <table> <index> <key values...>
  freeze            run one freezing round
  gc                run one garbage-collection round
  stats             engine counters
  stats -top [N]    top statements by total time, with wait breakdowns
  quit`)
		return nil
	case "create":
		// SQL-style CREATE goes through the SQL layer; the legacy shell
		// syntax (create table t (a int, ...)) is detected by the missing
		// ON/column types and still handled below.
		if strings.Contains(strings.ToLower(line), " table ") || strings.Contains(strings.ToLower(line), " index ") {
			if err := runSQL(db, w, line); err == nil {
				return nil
			}
		}
		return create(db, w, line)
	case "insert":
		if strings.Contains(strings.ToLower(line), " into ") {
			return runSQL(db, w, line)
		}
		return insert(db, w, fields[1], fields[2:])
	case "get":
		return get(db, w, fields)
	case "scan":
		return scan(db, w, fields[1])
	case "delete":
		if strings.Contains(strings.ToLower(line), " from ") {
			return runSQL(db, w, line)
		}
		return del(db, w, fields)
	case "freeze":
		n, err := db.Freeze(64, 1<<20)
		fmt.Fprintln(w, "froze", n, "rows")
		return err
	case "gc":
		fmt.Fprintln(w, "reclaimed", db.CollectGarbage(), "undo records")
		return nil
	case "sql":
		return runSQL(db, w, strings.TrimSpace(line[3:]))
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
	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
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

func create(db *phoebedb.DB, w io.Writer, line string) error {
	// create table <name> (a int, b string) | create index <name> on <t> (a, b) [unique]
	open := strings.Index(line, "(")
	closeP := strings.LastIndex(line, ")")
	if open < 0 || closeP < open {
		return fmt.Errorf("expected (...) column list")
	}
	head := strings.Fields(line[:open])
	inner := line[open+1 : closeP]
	tail := strings.TrimSpace(line[closeP+1:])
	if len(head) < 3 {
		return fmt.Errorf("bad create statement")
	}
	switch head[1] {
	case "table":
		var cols []phoebedb.Column
		for _, part := range strings.Split(inner, ",") {
			kv := strings.Fields(strings.TrimSpace(part))
			if len(kv) != 2 {
				return fmt.Errorf("bad column spec %q", part)
			}
			var t = phoebedb.TString
			switch kv[1] {
			case "int":
				t = phoebedb.TInt64
			case "float":
				t = phoebedb.TFloat64
			case "string":
				t = phoebedb.TString
			default:
				return fmt.Errorf("unknown type %q", kv[1])
			}
			cols = append(cols, phoebedb.Column{Name: kv[0], Type: t})
		}
		if err := db.CreateTable(head[2], phoebedb.NewSchema(cols...)); err != nil {
			return err
		}
		fmt.Fprintln(w, "created table", head[2])
		return nil
	case "index":
		if len(head) < 5 || head[3] != "on" {
			return fmt.Errorf("usage: create index <name> on <table> (cols) [unique]")
		}
		var cols []string
		for _, c := range strings.Split(inner, ",") {
			cols = append(cols, strings.TrimSpace(c))
		}
		unique := tail == "unique"
		if err := db.CreateIndex(head[4], head[2], cols, unique); err != nil {
			return err
		}
		fmt.Fprintln(w, "created index", head[2])
		return nil
	default:
		return fmt.Errorf("create what?")
	}
}

// parseVals converts shell words into typed values using the schema.
func parseVals(schema *phoebedb.Schema, words []string) ([]phoebedb.Value, error) {
	out := make([]phoebedb.Value, len(words))
	for i, w := range words {
		if i < len(schema.Cols) {
			switch schema.Cols[i].Type {
			case phoebedb.TInt64:
				n, err := strconv.ParseInt(w, 10, 64)
				if err != nil {
					return nil, err
				}
				out[i] = phoebedb.Int(n)
				continue
			case phoebedb.TFloat64:
				f, err := strconv.ParseFloat(w, 64)
				if err != nil {
					return nil, err
				}
				out[i] = phoebedb.Float(f)
				continue
			}
		}
		out[i] = phoebedb.Str(w)
	}
	return out, nil
}

// parseLoose guesses types: int, then float, then string.
func parseLoose(words []string) []phoebedb.Value {
	out := make([]phoebedb.Value, len(words))
	for i, w := range words {
		if n, err := strconv.ParseInt(w, 10, 64); err == nil {
			out[i] = phoebedb.Int(n)
		} else if f, err := strconv.ParseFloat(w, 64); err == nil {
			out[i] = phoebedb.Float(f)
		} else {
			out[i] = phoebedb.Str(w)
		}
	}
	return out
}

func insert(db *phoebedb.DB, w io.Writer, table string, words []string) error {
	tbl, err := db.Engine().Table(table)
	if err != nil {
		return err
	}
	vals, err := parseVals(tbl.Schema, words)
	if err != nil {
		return err
	}
	return db.Execute(func(tx *phoebedb.Tx) error {
		rid, err := tx.Insert(table, phoebedb.Row(vals))
		if err == nil {
			fmt.Fprintln(w, "row_id", rid)
		}
		return err
	})
}

func get(db *phoebedb.DB, w io.Writer, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("usage: get <table> <index> <key...>")
	}
	return db.Execute(func(tx *phoebedb.Tx) error {
		rid, row, found, err := tx.GetByIndex(fields[1], fields[2], parseLoose(fields[3:])...)
		if err != nil {
			return err
		}
		if !found {
			fmt.Fprintln(w, "(not found)")
			return nil
		}
		fmt.Fprintf(w, "row_id %d: %v\n", rid, row)
		return nil
	})
}

func scan(db *phoebedb.DB, w io.Writer, table string) error {
	return db.Execute(func(tx *phoebedb.Tx) error {
		n := 0
		err := tx.ScanTable(table, func(rid phoebedb.RowID, row phoebedb.Row) bool {
			fmt.Fprintf(w, "  %d: %v\n", rid, row)
			n++
			return n < 100
		})
		if n == 100 {
			fmt.Fprintln(w, "  ... (truncated at 100 rows)")
		}
		return err
	})
}

func del(db *phoebedb.DB, w io.Writer, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("usage: delete <table> <index> <key...>")
	}
	return db.Execute(func(tx *phoebedb.Tx) error {
		rid, _, found, err := tx.GetByIndex(fields[1], fields[2], parseLoose(fields[3:])...)
		if err != nil {
			return err
		}
		if !found {
			fmt.Fprintln(w, "(not found)")
			return nil
		}
		if err := tx.Delete(fields[1], rid); err != nil {
			return err
		}
		fmt.Fprintln(w, "deleted row_id", rid)
		return nil
	})
}
