package logictest

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"phoebedb/internal/rel"
	"phoebedb/internal/sql"
)

// Target executes one SQL statement. Both phoebedb.DB.ExecSQL and
// Reference.Exec satisfy it.
type Target func(stmt string) (sql.Result, error)

// RenderValue prints a value the way the logic tests and the oracle
// compare them. Floats use the shortest round-tripping form, so golden
// rows pin a float's exact bits.
func RenderValue(v rel.Value) string {
	switch v.Kind {
	case rel.TInt64:
		return strconv.FormatInt(v.I, 10)
	case rel.TFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// RenderRow joins a row's values with single spaces — the golden-file
// row format. Script authors must avoid spaces inside string values.
func RenderRow(row rel.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = RenderValue(v)
	}
	return strings.Join(parts, " ")
}

// RenderRows renders every row; when rowsort is set the rendered lines
// are sorted, turning the comparison order-insensitive.
func RenderRows(rows []rel.Row, rowsort bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = RenderRow(r)
	}
	if rowsort {
		sort.Strings(out)
	}
	return out
}

// floatTol is the relative difference within which the oracle takes two
// float cells as equal. A float sum depends on the order rows are added in,
// and the engine's scan order departs from the reference's insertion order
// once inserts reuse slots a DELETE freed.
const floatTol = 1e-9

// SameRowSet reports whether two results hold the same multiset of rows,
// float cells compared within floatTol.
func SameRowSet(a, b []rel.Row) bool {
	return len(a) == len(b) && ContainsRowSet(a, b)
}

// ContainsRowSet reports whether sub's rows are a sub-multiset of super's,
// float cells compared within floatTol.
func ContainsRowSet(super, sub []rel.Row) bool {
	// Rows that render identically pair off first, through a map, so a
	// large result costs linear time; only the rest are matched cell by
	// cell against every unpaired row.
	have := map[string][]rel.Row{}
	for _, r := range super {
		k := RenderRow(r)
		have[k] = append(have[k], r)
	}
	var rest []rel.Row
	for _, r := range sub {
		k := RenderRow(r)
		if n := len(have[k]); n > 0 {
			have[k] = have[k][:n-1]
		} else {
			rest = append(rest, r)
		}
	}
	if len(rest) == 0 {
		return true
	}
	var left []rel.Row
	for _, rows := range have {
		left = append(left, rows...)
	}
	for _, r := range rest {
		i := slices.IndexFunc(left, func(l rel.Row) bool { return rowsClose(l, r) })
		if i < 0 {
			return false
		}
		left[i] = left[len(left)-1]
		left = left[:len(left)-1]
	}
	return true
}

// rowsClose reports whether two rows agree: float cells within floatTol,
// every other cell as rendered.
func rowsClose(a, b rel.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind == rel.TFloat64 && b[i].Kind == rel.TFloat64 {
			x, y := a[i].F, b[i].F
			if x != y && math.Abs(x-y) > floatTol*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		} else if RenderValue(a[i]) != RenderValue(b[i]) {
			return false
		}
	}
	return true
}

// sltCase is one directive block of a script.
type sltCase struct {
	line    int
	kind    string // "ok", "error", "query"
	errSub  string // for "error": required substring of the engine error
	rowsort bool   // for "query"
	stmt    string
	want    []string // for "query": golden rows, one rendered row per line
}

// parseScript reads a .slt file into cases. Grammar:
//
//	statement ok
//	<sql, one or more lines, ended by blank line>
//
//	statement error <substring>
//	<sql>
//
//	query rowsort|ordered
//	<sql>
//	----
//	<expected rows, one per line, values space-separated>
//
// '#' starts a comment line. Blank lines separate blocks.
func parseScript(path string) ([]sltCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	var cases []sltCase
	i := 0
	next := func() (string, bool) {
		if i >= len(lines) {
			return "", false
		}
		l := lines[i]
		i++
		return l, true
	}
	for {
		l, ok := next()
		if !ok {
			break
		}
		trimmed := strings.TrimSpace(l)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		c := sltCase{line: i}
		fields := strings.Fields(trimmed)
		switch {
		case fields[0] == "statement" && len(fields) >= 2 && fields[1] == "ok":
			c.kind = "ok"
		case fields[0] == "statement" && len(fields) >= 2 && fields[1] == "error":
			c.kind = "error"
			c.errSub = strings.TrimSpace(strings.TrimPrefix(trimmed, "statement error"))
		case fields[0] == "query" && len(fields) >= 2 && (fields[1] == "rowsort" || fields[1] == "ordered"):
			c.kind = "query"
			c.rowsort = fields[1] == "rowsort"
		default:
			return nil, fmt.Errorf("%s:%d: bad directive %q", path, i, trimmed)
		}
		// Statement text: lines until blank (statement) or "----" (query).
		var stmt []string
		for {
			l, ok := next()
			if !ok || strings.TrimSpace(l) == "" {
				if c.kind == "query" {
					return nil, fmt.Errorf("%s:%d: query without ----", path, c.line)
				}
				break
			}
			if c.kind == "query" && strings.TrimSpace(l) == "----" {
				break
			}
			stmt = append(stmt, strings.TrimSpace(l))
		}
		c.stmt = strings.Join(stmt, " ")
		if c.stmt == "" {
			return nil, fmt.Errorf("%s:%d: empty statement", path, c.line)
		}
		if c.kind == "query" {
			for {
				l, ok := next()
				if !ok || strings.TrimSpace(l) == "" {
					break
				}
				c.want = append(c.want, strings.TrimSpace(l))
			}
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// reporter is the subset of *testing.T the runner needs.
type reporter interface {
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunScript executes a parsed .slt script against the engine AND a fresh
// reference engine, checking both against the golden expectations. Any
// divergence — engine vs golden, reference vs golden, or error-status
// disagreement — fails the test.
func RunScript(t reporter, path string, engine Target) {
	cases, err := parseScript(path)
	if err != nil {
		t.Fatalf("parse script: %v", err)
	}
	ref := NewReference()
	for _, c := range cases {
		eres, eerr := engine(c.stmt)
		// Engine-only statements (stat-table reads, EXPLAIN) have no
		// reference semantics: the golden rows are their sole oracle.
		refRuns := true
		if stmt, perr := sql.Parse(c.stmt); perr == nil && ref.skippable(stmt) {
			refRuns = false
		}
		var rres sql.Result
		var rerr error
		if refRuns {
			rres, rerr = ref.Exec(c.stmt)
		}
		where := fmt.Sprintf("%s:%d: %s", path, c.line, c.stmt)
		switch c.kind {
		case "ok":
			if eerr != nil {
				t.Fatalf("%s: engine error: %v", where, eerr)
			}
			if refRuns && rerr != nil {
				t.Fatalf("%s: reference error: %v", where, rerr)
			}
		case "error":
			if eerr == nil {
				t.Fatalf("%s: engine succeeded, want error containing %q", where, c.errSub)
			}
			if c.errSub != "" && !strings.Contains(eerr.Error(), c.errSub) {
				t.Errorf("%s: engine error %q does not contain %q", where, eerr, c.errSub)
			}
			if refRuns && rerr == nil {
				t.Fatalf("%s: reference succeeded, want error", where)
			}
		case "query":
			if eerr != nil {
				t.Fatalf("%s: engine error: %v", where, eerr)
			}
			got := RenderRows(eres.Rows, c.rowsort)
			if !sameLines(got, c.want) {
				t.Errorf("%s:\nengine rows:\n  %s\nwant:\n  %s",
					where, strings.Join(got, "\n  "), strings.Join(c.want, "\n  "))
			}
			if !refRuns {
				break
			}
			if rerr != nil {
				t.Fatalf("%s: reference error: %v", where, rerr)
			}
			refGot := RenderRows(rres.Rows, c.rowsort)
			if !sameLines(refGot, c.want) {
				t.Errorf("%s:\nreference rows:\n  %s\nwant:\n  %s",
					where, strings.Join(refGot, "\n  "), strings.Join(c.want, "\n  "))
			}
		}
	}
}

// sameLines compares rendered rows to golden lines. parseScript stores
// golden lines whitespace-trimmed, so the rendered side is trimmed too —
// this lets EXPLAIN's indented plan rows ("  -> ...") appear in goldens
// without the script format having to preserve leading spaces.
func sameLines(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if strings.TrimSpace(got[i]) != want[i] {
			return false
		}
	}
	return true
}
