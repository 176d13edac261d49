package logictest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"phoebedb/internal/sql"
)

var rootActualRE = regexp.MustCompile(`\(actual rows=(\d+) `)

// TestExplainAnalyzeRootRows replays every golden script and, for each
// SELECT query, checks that EXPLAIN ANALYZE ran the statement itself: the
// plan root's actual row count equals the row count of the plain statement.
func TestExplainAnalyzeRootRows(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.slt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			cases, err := parseScript(path)
			if err != nil {
				t.Fatal(err)
			}
			db := openDB(t)
			checked := 0
			for _, c := range cases {
				res, err := db.ExecSQL(c.stmt)
				stmt, perr := sql.Parse(c.stmt)
				if _, isSelect := stmt.(sql.SelectStmt); c.kind != "query" || perr != nil || !isSelect || err != nil {
					continue
				}
				plan, err := db.ExecSQL("EXPLAIN ANALYZE " + c.stmt)
				if err != nil {
					t.Fatalf("%s:%d: EXPLAIN ANALYZE %s: %v", path, c.line, c.stmt, err)
				}
				m := rootActualRE.FindStringSubmatch(plan.Rows[0][0].S)
				if m == nil {
					t.Fatalf("%s:%d: root %q carries no actuals", path, c.line, plan.Rows[0][0].S)
				}
				if n, _ := strconv.Atoi(m[1]); n != len(res.Rows) {
					t.Errorf("%s:%d: %s: root actual rows=%d, the statement returned %d",
						path, c.line, c.stmt, n, len(res.Rows))
				}
				checked++
			}
			t.Logf("%d SELECTs checked", checked)
		})
	}
}
