package sql

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"phoebedb/internal/rel"
)

func explainLines(t *testing.T, cat Catalog, tx Txn, src string) []string {
	t.Helper()
	res := mustExec(t, cat, tx, src)
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].S
	}
	return lines
}

func wantLines(t *testing.T, got, want []string, src string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s:\ngot:\n%s\nwant:\n%s", src, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: line %d = %q, want %q", src, i, got[i], want[i])
		}
	}
}

func TestExplainSingleTable(t *testing.T) {
	cat, tx := ordersFixture()

	// Equality on the unique index: index scan with an Index Cond.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT amt FROM o WHERE id = 2"), []string{
		"Project (amt)",
		"  -> Index Scan using o_pk on o",
		"       Index Cond: id = 2",
	}, "pk lookup")

	// Unindexed predicate: full scan with a residual Filter.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE amt = 20"), []string{
		"Project (id)",
		"  -> Seq Scan on o",
		"       Filter: amt = 20",
		"       Vectorized: true",
	}, "seq scan")

	// o_region pins region and continues in id order: sort avoided and
	// the LIMIT pushed into the scan; the Limit node still truncates.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT id FROM o WHERE region = 'eu' ORDER BY id LIMIT 2"), []string{
		"Project (id)",
		"  -> Limit 2",
		"    -> Index Scan using o_region on o",
		"         Index Cond: region = \"eu\"",
		"         Order: o_region scan order satisfies ORDER BY (sort avoided)",
		"         Limit Pushdown: stop after 2 rows",
	}, "sort avoidance")

	// DESC breaks index order: explicit Sort node.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT id FROM o WHERE region = 'eu' ORDER BY id DESC"), []string{
		"Project (id)",
		"  -> Sort (id DESC)",
		"    -> Index Scan using o_region on o",
		"         Index Cond: region = \"eu\"",
	}, "desc sort")

	// Aggregation pipeline.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT region, count(*) FROM o GROUP BY region"), []string{
		"Project (region, count(*))",
		"  -> HashAggregate (group by region)",
		"    -> Seq Scan on o",
		"         Vectorized: true",
	}, "group by")
}

func TestExplainJoins(t *testing.T) {
	cat, tx := ordersFixture()

	// i_oid indexes the inner join column: index-nested-loop, o driving.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT o.region, i.sku FROM o JOIN i ON o.id = i.oid"), []string{
		"Project (region, sku)",
		"  -> IndexNestedLoop Join (o.id = i.oid)",
		"    -> Seq Scan on o",
		"         Vectorized: true",
		"    -> Index Scan using i_oid on i",
		"         Index Cond: oid = o.id",
	}, "index nested loop")

	// Neither float column indexed: hash join with an explicit build side.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT o.id, i.sku FROM o JOIN i ON o.amt = i.price"), []string{
		"Project (id, sku)",
		"  -> Hash Join (o.amt = i.price)",
		"    -> Seq Scan on o",
		"         Vectorized: true",
		"    -> Hash Build",
		"      -> Seq Scan on i",
		"           Vectorized: true",
	}, "hash join")
}

func TestExplainDML(t *testing.T) {
	cat, tx := ordersFixture()
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN UPDATE o SET amt = 1 WHERE id = 3"), []string{
		"Update on o",
		"  -> Index Scan using o_pk on o",
		"       Index Cond: id = 3",
	}, "update")
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN INSERT INTO o VALUES (9, 'eu', 1.5)"), []string{
		"Insert on o (1 rows)",
	}, "insert")
}

func TestExplainRejects(t *testing.T) {
	cat, tx := ordersFixture()
	for _, src := range []string{
		"EXPLAIN EXPLAIN SELECT id FROM o",
		"EXPLAIN CREATE TABLE z (a INT)",
		"EXPLAIN CREATE INDEX zi ON o (id)",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Exec(cat, tx, stmt); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

var actualRE = regexp.MustCompile(`\(actual rows=(\d+) loops=(\d+) time=([0-9.]+) ms\)`)
var execTimeRE = regexp.MustCompile(`^Execution Time: ([0-9.]+) ms$`)

// parseActuals extracts (rows, loops, ms) per annotated node plus the
// trailing Execution Time line.
func parseActuals(t *testing.T, lines []string) (nodes []struct {
	rows, loops int64
	ms          float64
}, total float64) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("no plan lines")
	}
	m := execTimeRE.FindStringSubmatch(lines[len(lines)-1])
	if m == nil {
		t.Fatalf("last line %q is not Execution Time", lines[len(lines)-1])
	}
	total, _ = strconv.ParseFloat(m[1], 64)
	for _, l := range lines[:len(lines)-1] {
		am := actualRE.FindStringSubmatch(l)
		if am == nil {
			continue
		}
		rows, _ := strconv.ParseInt(am[1], 10, 64)
		loops, _ := strconv.ParseInt(am[2], 10, 64)
		ms, _ := strconv.ParseFloat(am[3], 64)
		nodes = append(nodes, struct {
			rows, loops int64
			ms          float64
		}{rows, loops, ms})
	}
	return nodes, total
}

func TestExplainAnalyzeJoinActuals(t *testing.T) {
	cat, tx := ordersFixture()
	lines := explainLines(t, cat, tx,
		"EXPLAIN ANALYZE SELECT o.region, i.sku FROM o JOIN i ON o.id = i.oid")

	var drive, probe string
	for _, l := range lines {
		switch {
		case strings.Contains(l, "Seq Scan on o"):
			drive = l
		case strings.Contains(l, "Index Scan using i_oid"):
			probe = l
		}
	}
	// Drive scan emits all 4 o rows in one pass; the probe runs once per
	// drive row and matches items for orders 1, 2, 2, 3.
	dm := actualRE.FindStringSubmatch(drive)
	if dm == nil || dm[1] != "4" || dm[2] != "1" {
		t.Fatalf("drive scan actuals: %q", drive)
	}
	pm := actualRE.FindStringSubmatch(probe)
	if pm == nil || pm[1] != "4" || pm[2] != "4" {
		t.Fatalf("probe actuals: %q", probe)
	}
	if _, total := parseActuals(t, lines); total <= 0 {
		t.Fatalf("total = %v", total)
	}
}

// TestExplainAnalyzeTimesSum checks the single-charge discipline: with
// nested operator brackets (probe inside the driving scan's callback,
// shaping stages downstream) each nanosecond lands in exactly one
// operator, so node times sum to at most the statement wall time.
func TestExplainAnalyzeTimesSum(t *testing.T) {
	cat, tx := ordersFixture()
	for i := 0; i < 3000; i++ {
		tx.Insert("o", rel.Row{rel.Int(int64(100 + i)), rel.Str("bulk"), rel.Float(float64(i))})
		tx.Insert("i", rel.Row{rel.Int(int64(100 + i)), rel.Int(1), rel.Str("sku"), rel.Float(1)})
	}
	for _, src := range []string{
		"EXPLAIN ANALYZE SELECT region, count(*) FROM o GROUP BY region ORDER BY region LIMIT 2",
		"EXPLAIN ANALYZE SELECT o.id, i.qty FROM o JOIN i ON o.id = i.oid",
		"EXPLAIN ANALYZE SELECT o.id, i.sku FROM o JOIN i ON o.amt = i.price LIMIT 5",
	} {
		nodes, total := parseActuals(t, explainLines(t, cat, tx, src))
		if len(nodes) == 0 {
			t.Fatalf("%s: no annotated nodes", src)
		}
		var sum float64
		for _, n := range nodes {
			sum += n.ms
		}
		// Allow a small epsilon for float rendering (3 decimal places
		// per node) — never for systematic double counting.
		if eps := 0.001 * float64(len(nodes)); sum > total+eps {
			t.Errorf("%s: operator times %.3f ms exceed wall %.3f ms", src, sum, total)
		}
	}
}

// TestExplainAnalyzeUntracedZeroCost pins the nil-collector contract:
// executing without ANALYZE must not populate any trace state (the same
// code paths run with nil opTrace receivers).
func TestExplainAnalyzeUntracedZeroCost(t *testing.T) {
	cat, tx := ordersFixture()
	var tr *execTrace
	if op := tr.op(opScan); op != nil {
		t.Fatal("nil trace returned a live operator")
	}
	var op *opTrace
	op.end(op.begin()) // must not panic
	op.rows(1, 1)
	stmt, _ := Parse("SELECT id FROM o WHERE region = 'eu'")
	if _, err := exec(cat, tx, stmt, nil, nil, new(Scratch), discard{}); err != nil {
		t.Fatal(err)
	}
}

func TestExplainRangeConds(t *testing.T) {
	cat, tx := ordersFixture()

	// Range bounds on the unique index render as an Index Range Cond with
	// their inclusivity.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT region FROM o WHERE id > 1 AND id <= 3"), []string{
		"Project (region)",
		"  -> Index Range Scan using o_pk on o",
		"       Index Range Cond: id > 1 AND id <= 3",
	}, "pk range")

	// Equality prefix + BETWEEN on the next index column.
	wantLines(t, explainLines(t, cat, tx,
		"EXPLAIN SELECT id FROM o WHERE region = 'eu' AND id BETWEEN 1 AND 2"), []string{
		"Project (id)",
		"  -> Index Range Scan using o_region on o",
		"       Index Cond: region = \"eu\"",
		"       Index Range Cond: id >= 1 AND id <= 2",
	}, "prefix + between")

	// Unindexed comparison stays a residual filter, rendered op-aware.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE amt >= 10"), []string{
		"Project (id)",
		"  -> Seq Scan on o",
		"       Filter: amt >= 10",
		"       Vectorized: true",
	}, "op-aware filter")

	// Contradictory bounds prove emptiness before any scan.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE id > 5 AND id < 3"), []string{
		"Project (id)",
		"  -> Empty Scan on o",
		"       One-Time Filter: false (contradictory WHERE)",
	}, "contradiction")
}

// TestExplainVectorizedNote pins when a scan node advertises the batch
// path: full scan, every filtered column fixed-width.
func TestExplainVectorizedNote(t *testing.T) {
	cat, tx := ordersFixture()

	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE amt >= 10"), []string{
		"Project (id)",
		"  -> Seq Scan on o",
		"       Filter: amt >= 10",
		"       Vectorized: true",
	}, "vectorized seq scan")

	// A var-width filter column keeps the row path.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE region = 'x' AND amt > 1"), []string{
		"Project (id)",
		"  -> Index Scan using o_region on o",
		"       Index Cond: region = \"x\"",
		"       Filter: amt > 1",
	}, "index scan never vectorized")

	// One var-width conjunct on a full scan: the scan splits, the note
	// (which promises the whole filter runs on strips) stays off.
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN SELECT id FROM o WHERE region != 'x' AND amt > 1"), []string{
		"Project (id)",
		"  -> Seq Scan on o",
		"       Filter: region != \"x\" AND amt > 1",
	}, "mixed filter")
}

// TestExplainAnalyzeInScanFold: EXPLAIN renders the in-scan fold under its
// own label, and EXPLAIN ANALYZE runs that fold — one AggTableFiltered
// call, no gather — charging the scan with the qualifying rows and the
// aggregate with its one row.
func TestExplainAnalyzeInScanFold(t *testing.T) {
	cat, tx := ordersFixture()
	const q = "SELECT count(*), sum(amt) FROM o WHERE amt >= 10"
	wantLines(t, explainLines(t, cat, tx, "EXPLAIN "+q), []string{
		"Project (count(*), sum(amt))",
		"  -> Aggregate (in scan)",
		"    -> Seq Scan on o",
		"         Filter: amt >= 10",
		"         Vectorized: true",
	}, "in-scan fold")

	before := tx.aggCalls
	lines := explainLines(t, cat, tx, "EXPLAIN ANALYZE "+q)
	if tx.aggCalls != before+1 {
		t.Fatalf("EXPLAIN ANALYZE made %d AggTableFiltered calls, want 1", tx.aggCalls-before)
	}
	for i, want := range []string{"1", "1", "3"} { // project, aggregate, scan
		if m := actualRE.FindStringSubmatch(lines[i]); m == nil || m[1] != want || m[2] != "1" {
			t.Errorf("line %q: want actual rows=%s loops=1", lines[i], want)
		}
	}

	// The slow log's plan line carries the same label.
	noting := &notingTxn{memTxn: tx}
	stmt, _ := Parse(q)
	if _, err := Exec(cat, noting, stmt); err != nil {
		t.Fatal(err)
	}
	if len(noting.notes) != 1 || noting.notes[0] != "Aggregate (in scan) on o" {
		t.Fatalf("noted plans %q, want [Aggregate (in scan) on o]", noting.notes)
	}
}

// notingTxn records the plan lines the executor notes for the slow log.
type notingTxn struct {
	*memTxn
	notes []string
}

func (n *notingTxn) NotePlan(desc string) { n.notes = append(n.notes, desc) }
