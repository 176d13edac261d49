package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"phoebedb/internal/rel"
)

// --- Multi-table in-memory fixture for the shaped executor ------------------

type memCat struct {
	schemas map[string]*rel.Schema
	indexes map[string][]IndexMeta
	c       Counters
}

func (c *memCat) CreateTable(string, *rel.Schema) error            { return nil }
func (c *memCat) CreateIndex(string, string, []string, bool) error { return nil }
func (c *memCat) SQLCounters() *Counters                           { return &c.c }

func (c *memCat) TableSchema(name string) (*rel.Schema, error) {
	s, ok := c.schemas[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return s, nil
}

func (c *memCat) IndexInfo(name string) ([]IndexMeta, error) { return c.indexes[name], nil }

type memTxn struct {
	cat      *memCat
	rows     map[string][]rel.Row
	scans    []string      // access-path audit trail
	strips   []rel.ColPred // predicates the last full scan pushed to the engine
	aggCalls int
}

func (m *memTxn) Insert(table string, row rel.Row) (rel.RowID, error) {
	m.rows[table] = append(m.rows[table], row.Clone())
	return rel.RowID(len(m.rows[table])), nil
}

func (m *memTxn) ScanTableFiltered(table string, preds []rel.ColPred, fn func(rel.RowID, rel.Row) bool) error {
	m.scans = append(m.scans, "table:"+table)
	m.strips = preds
	for i, row := range m.rows[table] {
		ok := true
		for _, p := range preds {
			if m.cat.schemas[table].Cols[p.Col].Type.FixedWidth() == 0 {
				return fmt.Errorf("var-width column %d pushed to the strips", p.Col)
			}
			if !p.EvalRow(row) {
				ok = false
				break
			}
		}
		if ok && !fn(rel.RowID(i+1), row) {
			return nil
		}
	}
	return nil
}

// ScanIndex emulates a real index scan: rows whose indexed columns match
// the prefix vals, emitted in index-key order.
func (m *memTxn) ScanIndex(table, index string, vals []rel.Value, fn func(rel.RowID, rel.Row) bool) error {
	m.scans = append(m.scans, "index:"+index)
	var meta *IndexMeta
	for i := range m.cat.indexes[table] {
		if m.cat.indexes[table][i].Name == index {
			meta = &m.cat.indexes[table][i]
		}
	}
	if meta == nil {
		return fmt.Errorf("no index %q", index)
	}
	type hit struct {
		rid rel.RowID
		row rel.Row
	}
	var hits []hit
	for i, row := range m.rows[table] {
		ok := true
		for j, v := range vals {
			if !row[meta.Cols[j]].Equal(v) {
				ok = false
				break
			}
		}
		if ok {
			hits = append(hits, hit{rel.RowID(i + 1), row})
		}
	}
	sort.SliceStable(hits, func(a, b int) bool {
		for _, c := range meta.Cols {
			if cmp := compareValues(hits[a].row[c], hits[b].row[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return hits[a].rid < hits[b].rid
	})
	for _, h := range hits {
		if !fn(h.rid, h.row) {
			return nil
		}
	}
	return nil
}

// ScanIndexRange is ScanIndex over the prefix with the bounds applied to
// the next index column.
func (m *memTxn) ScanIndexRange(table, index string, prefix []rel.Value, lo, hi rel.Value,
	hasLo, hasHi, loIncl, hiIncl bool, fn func(rel.RowID, rel.Row) bool) error {
	var col int
	for _, meta := range m.cat.indexes[table] {
		if meta.Name == index {
			col = meta.Cols[len(prefix)]
		}
	}
	return m.ScanIndex(table, index, prefix, func(rid rel.RowID, row rel.Row) bool {
		if hasLo {
			if c := compareValues(row[col], lo); c < 0 || (c == 0 && !loIncl) {
				return true
			}
		}
		if hasHi {
			if c := compareValues(row[col], hi); c > 0 || (c == 0 && !hiIncl) {
				return true
			}
		}
		return fn(rid, row)
	})
}

func (m *memTxn) Update(string, rel.RowID, map[string]rel.Value) error { return nil }
func (m *memTxn) Delete(string, rel.RowID) error                       { return nil }

// ordersFixture: o(id, region, amt) with unique o_pk(id) and o_region
// (region, id); i(oid, qty, sku, price) with non-unique i_oid(oid).
func ordersFixture() (*memCat, *memTxn) {
	cat := &memCat{
		schemas: map[string]*rel.Schema{
			"o": rel.NewSchema(
				rel.Column{Name: "id", Type: rel.TInt64},
				rel.Column{Name: "region", Type: rel.TString},
				rel.Column{Name: "amt", Type: rel.TFloat64},
			),
			"i": rel.NewSchema(
				rel.Column{Name: "oid", Type: rel.TInt64},
				rel.Column{Name: "qty", Type: rel.TInt64},
				rel.Column{Name: "sku", Type: rel.TString},
				rel.Column{Name: "price", Type: rel.TFloat64},
			),
		},
		indexes: map[string][]IndexMeta{
			"o": {
				{Name: "o_pk", Cols: []int{0}, Unique: true},
				{Name: "o_region", Cols: []int{1, 0}},
			},
			"i": {{Name: "i_oid", Cols: []int{0}}},
		},
	}
	tx := &memTxn{cat: cat, rows: map[string][]rel.Row{}}
	for _, r := range []struct {
		id     int64
		region string
		amt    float64
	}{
		{3, "eu", 30.5}, {1, "us", 10}, {2, "eu", 20}, {4, "ap", 4.5},
	} {
		tx.Insert("o", rel.Row{rel.Int(r.id), rel.Str(r.region), rel.Float(r.amt)})
	}
	for _, r := range []struct {
		oid, qty int64
		sku      string
		price    float64
	}{
		{1, 2, "ball", 5}, {2, 1, "bat", 20}, {2, 3, "cap", 8}, {3, 5, "ball", 5}, {9, 1, "ghost", 1},
	} {
		tx.Insert("i", rel.Row{rel.Int(r.oid), rel.Int(r.qty), rel.Str(r.sku), rel.Float(r.price)})
	}
	return cat, tx
}

func mustExec(t *testing.T, cat Catalog, tx Txn, src string) Result {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := Exec(cat, tx, stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

func rowStr(rows []rel.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			switch v.Kind {
			case rel.TInt64:
				fmt.Fprintf(&sb, "%d", v.I)
			case rel.TFloat64:
				fmt.Fprintf(&sb, "%g", v.F)
			default:
				sb.WriteString(v.S)
			}
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

func TestExecOrderByLimit(t *testing.T) {
	cat, tx := ordersFixture()
	res := mustExec(t, cat, tx, "SELECT id FROM o ORDER BY amt DESC LIMIT 2")
	if got := rowStr(res.Rows); got != "3;2;" {
		t.Fatalf("rows = %q", got)
	}
	if cat.c.Sorts.Load() != 1 {
		t.Fatalf("Sorts = %d", cat.c.Sorts.Load())
	}
	// Multi-key sort with a tie on region.
	res = mustExec(t, cat, tx, "SELECT id FROM o ORDER BY region ASC, amt DESC")
	if got := rowStr(res.Rows); got != "4;3;2;1;" {
		t.Fatalf("rows = %q", got)
	}
}

func TestExecOrderByIndexAvoidsSort(t *testing.T) {
	cat, tx := ordersFixture()
	// o_region(region, id) pins region by equality; ORDER BY id rides the
	// index order, so no sort runs.
	res := mustExec(t, cat, tx, "SELECT id FROM o WHERE region = 'eu' ORDER BY id")
	if got := rowStr(res.Rows); got != "2;3;" {
		t.Fatalf("rows = %q", got)
	}
	if cat.c.SortAvoided.Load() != 1 || cat.c.Sorts.Load() != 0 {
		t.Fatalf("SortAvoided = %d, Sorts = %d", cat.c.SortAvoided.Load(), cat.c.Sorts.Load())
	}
	if last := tx.scans[len(tx.scans)-1]; last != "index:o_region" {
		t.Fatalf("scan = %q", last)
	}
	// DESC keys cannot ride the (ascending) index.
	mustExec(t, cat, tx, "SELECT id FROM o WHERE region = 'eu' ORDER BY id DESC")
	if cat.c.Sorts.Load() != 1 {
		t.Fatalf("DESC did not sort")
	}
}

func TestExecGroupByAggregates(t *testing.T) {
	cat, tx := ordersFixture()
	res := mustExec(t, cat, tx,
		"SELECT region, count(*), sum(amt), min(amt), max(amt), avg(id) FROM o GROUP BY region ORDER BY region")
	want := "ap,1,4.5,4.5,4.5,4;eu,2,50.5,20,30.5,2.5;us,1,10,10,10,1;"
	if got := rowStr(res.Rows); got != want {
		t.Fatalf("rows = %q, want %q", got, want)
	}
	if res.Columns[1] != "count(*)" || res.Columns[2] != "sum(amt)" || res.Columns[5] != "avg(id)" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Scalar aggregates; COUNT(col) counts rows like COUNT(*).
	res = mustExec(t, cat, tx, "SELECT count(oid), sum(qty) FROM i")
	if got := rowStr(res.Rows); got != "5,12;" {
		t.Fatalf("scalar rows = %q", got)
	}
	// Scalar aggregate over zero rows: one row of zero values.
	res = mustExec(t, cat, tx, "SELECT count(*), sum(amt), min(region) FROM o WHERE region = 'nowhere'")
	if got := rowStr(res.Rows); got != "0,0,;" {
		t.Fatalf("empty scalar rows = %q", got)
	}
	// GROUP BY without aggregates deduplicates, deterministically ordered.
	res = mustExec(t, cat, tx, "SELECT region FROM o GROUP BY region")
	if got := rowStr(res.Rows); got != "ap;eu;us;" {
		t.Fatalf("distinct rows = %q", got)
	}
}

func TestExecJoinIndexNestedLoop(t *testing.T) {
	cat, tx := ordersFixture()
	res := mustExec(t, cat, tx,
		"SELECT o.id, i.sku FROM o JOIN i ON o.id = i.oid WHERE region = 'eu' ORDER BY o.id, i.sku")
	if got := rowStr(res.Rows); got != "2,bat;2,cap;3,ball;" {
		t.Fatalf("rows = %q", got)
	}
	// The inner side has i_oid on the join column: INL probes it.
	probed := false
	for _, s := range tx.scans {
		if s == "index:i_oid" {
			probed = true
		}
	}
	if !probed {
		t.Fatalf("no INL probe: %v", tx.scans)
	}
	if cat.c.JoinRows.Load() != 3 {
		t.Fatalf("JoinRows = %d", cat.c.JoinRows.Load())
	}
}

func TestExecJoinSwappedAndHash(t *testing.T) {
	cat, tx := ordersFixture()
	// i.qty has no index but o.id does: the executor drives over i and
	// probes o_pk (swapped INL).
	res := mustExec(t, cat, tx,
		"SELECT o.id, i.sku FROM o JOIN i ON i.qty = o.id ORDER BY o.id, i.sku")
	if got := rowStr(res.Rows); got != "1,bat;1,ghost;2,ball;3,cap;" {
		t.Fatalf("swapped rows = %q", got)
	}
	probed := false
	for _, s := range tx.scans {
		if s == "index:o_pk" {
			probed = true
		}
	}
	if !probed {
		t.Fatalf("no swapped probe: %v", tx.scans)
	}

	// Neither amt nor price is indexed: hash join.
	tx.scans = nil
	res = mustExec(t, cat, tx,
		"SELECT o.id, i.sku FROM o JOIN i ON o.amt = i.price ORDER BY o.id, i.sku")
	if got := rowStr(res.Rows); got != "2,bat;" {
		t.Fatalf("hash rows = %q", got)
	}
	for _, s := range tx.scans {
		if strings.HasPrefix(s, "index:") {
			t.Fatalf("hash join touched an index: %v", tx.scans)
		}
	}
}

func TestExecJoinAggregates(t *testing.T) {
	cat, tx := ordersFixture()
	res := mustExec(t, cat, tx,
		"SELECT o.region, count(*), sum(i.qty) FROM o JOIN i ON o.id = i.oid GROUP BY o.region ORDER BY o.region")
	if got := rowStr(res.Rows); got != "eu,3,9;us,1,2;" {
		t.Fatalf("rows = %q", got)
	}
}

func TestExecShapedErrors(t *testing.T) {
	cat, tx := ordersFixture()
	for _, src := range []string{
		"SELECT sku FROM o",                                                             // unknown column
		"SELECT x.id FROM o",                                                            // unknown qualifier
		"SELECT id FROM o WHERE x.id = 1",                                               // unknown WHERE qualifier
		"SELECT id FROM o GROUP BY region",                                              // non-grouped column
		"SELECT sum(region) FROM o",                                                     // SUM over string
		"SELECT avg(sku) FROM i",                                                        // AVG over string
		"SELECT * FROM o GROUP BY region",                                               // star with GROUP BY
		"SELECT region FROM o GROUP BY region ORDER BY amt",                             // ORDER BY non-group column
		"SELECT o.id FROM o JOIN i ON o.id = o.id",                                      // join cond on one table
		"SELECT o.id FROM o JOIN i ON o.id = i.sku",                                     // join type mismatch
		"SELECT o.id FROM o JOIN o ON o.id = o.id",                                      // self join
		"SELECT id FROM o JOIN i ON o.id = i.oid",                                       // ambiguous? no: id only in o -- use qty test below
		"SELECT qty FROM i JOIN o ON o.id = i.oid WHERE id = 1 AND oid = 2 AND zzz = 3", // unknown col
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Exec(cat, tx, stmt); err == nil && src != "SELECT id FROM o JOIN i ON o.id = i.oid" {
			t.Fatalf("%q executed without error", src)
		}
	}
	// Ambiguity: both o and i have no shared names in this fixture, so
	// craft one via ORDER BY against a joined source with a qualifier typo.
	stmt, _ := Parse("SELECT o.id FROM o JOIN i ON o.id = i.oid ORDER BY zzz")
	if _, err := Exec(cat, tx, stmt); err == nil {
		t.Fatal("unknown ORDER BY column executed")
	}
}

// AggTableFiltered folds row at a time over ScanTableFiltered, so unit
// tests exercise the scalar aggregate pushdown without an engine.
func (m *memTxn) AggTableFiltered(table string, preds []rel.ColPred, specs []rel.AggSpec) ([]rel.Value, int64, error) {
	m.aggCalls++
	var n int64
	vals := make([]rel.Value, len(specs))
	err := m.ScanTableFiltered(table, preds, func(_ rel.RowID, row rel.Row) bool {
		for si, sp := range specs {
			if sp.Op == rel.AggOpCount {
				continue
			}
			cv := row[sp.Col]
			if n == 0 {
				vals[si] = cv
				continue
			}
			switch sp.Op {
			case rel.AggOpSum:
				if cv.Kind == rel.TInt64 {
					vals[si] = rel.Int(vals[si].I + cv.I)
				} else {
					vals[si] = rel.Float(vals[si].F + cv.F)
				}
			case rel.AggOpMin:
				if compareValues(cv, vals[si]) < 0 {
					vals[si] = cv
				}
			case rel.AggOpMax:
				if compareValues(cv, vals[si]) > 0 {
					vals[si] = cv
				}
			}
		}
		n++
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	for si, sp := range specs {
		if sp.Op == rel.AggOpCount {
			vals[si] = rel.Int(n)
		}
	}
	return vals, n, nil
}

// Scalar aggregates over a fixed-width filtered full scan must take the
// pushdown path (one AggTableFiltered call, no row materialization in the
// shaped pipeline) and produce the same results as the row path.
func TestScalarAggPushdown(t *testing.T) {
	cat, tx := ordersFixture()

	res := mustExec(t, cat, tx, "SELECT count(*), sum(amt), min(amt), max(amt), avg(amt) FROM o WHERE amt >= 10")
	if tx.aggCalls != 1 {
		t.Fatalf("aggCalls = %d, want 1 (pushdown not taken)", tx.aggCalls)
	}
	// Qualifying rows: amt 30.5, 10, 20.
	want := rel.Row{rel.Int(3), rel.Float(60.5), rel.Float(10), rel.Float(30.5), rel.Float(60.5 / 3)}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	for i, v := range want {
		if !res.Rows[0][i].Equal(v) {
			t.Fatalf("col %d = %v, want %v", i, res.Rows[0][i], v)
		}
	}

	// Empty input: the pushdown must substitute the zero-row defaults.
	res = mustExec(t, cat, tx, "SELECT count(*), sum(amt), min(id), avg(amt) FROM o WHERE amt > 1000")
	if tx.aggCalls != 2 {
		t.Fatalf("aggCalls = %d, want 2", tx.aggCalls)
	}
	want = rel.Row{rel.Int(0), rel.Float(0), rel.Int(0), rel.Float(0)}
	for i, v := range want {
		if !res.Rows[0][i].Equal(v) {
			t.Fatalf("empty col %d = %v, want %v", i, res.Rows[0][i], v)
		}
	}

	// A var-width filter column keeps the row path but must agree.
	res = mustExec(t, cat, tx, "SELECT count(*), sum(amt) FROM o WHERE region = 'eu' AND amt > 1")
	if tx.aggCalls != 2 {
		t.Fatalf("aggCalls = %d, want 2 (var-width filter must not push down)", tx.aggCalls)
	}
	if !res.Rows[0][0].Equal(rel.Int(2)) || !res.Rows[0][1].Equal(rel.Float(50.5)) {
		t.Fatalf("row-path aggs = %v", res.Rows[0])
	}

	// GROUP BY keeps the grouped pipeline.
	mustExec(t, cat, tx, "SELECT region, count(*) FROM o WHERE amt > 1 GROUP BY region")
	if tx.aggCalls != 2 {
		t.Fatalf("aggCalls = %d, want 2 (GROUP BY must not push down)", tx.aggCalls)
	}
}

// A full scan pushes exactly its fixed-width conjuncts to the engine's
// strips and checks the var-width ones per row; an index scan pushes none.
func TestFullScanPredicateSplit(t *testing.T) {
	cat, tx := ordersFixture()
	strips := func() string {
		var parts []string
		for _, p := range tx.strips {
			parts = append(parts, fmt.Sprintf("%s %s %v", cat.schemas["o"].Cols[p.Col].Name, p.Op, p.Val))
		}
		return strings.Join(parts, " AND ")
	}

	res := mustExec(t, cat, tx, "SELECT id FROM o WHERE amt >= 10 ORDER BY id")
	if got := fmt.Sprint(res.Rows); got != "[[1] [2] [3]]" {
		t.Fatalf("rows = %s", got)
	}
	if tx.scans[len(tx.scans)-1] != "table:o" || strips() != "amt >= 10" {
		t.Fatalf("scans = %v, strips = %q", tx.scans, strips())
	}

	// Mixed: the range reaches the strips, the string inequality does not.
	// (o_region needs an equality or a range on region to be chosen.)
	res = mustExec(t, cat, tx, "SELECT id FROM o WHERE amt >= 10 AND region != 'eu' ORDER BY id")
	if tx.scans[len(tx.scans)-1] != "table:o" || strips() != "amt >= 10" {
		t.Fatalf("mixed: scans = %v, strips = %q", tx.scans, strips())
	}
	if got := fmt.Sprint(res.Rows); got != "[[1]]" { // amt >= 10: ids 1, 2, 3; not eu: ids 1, 4
		t.Fatalf("mixed rows = %s, want [[1]]", got)
	}
	res = mustExec(t, cat, tx, "SELECT id FROM o WHERE region != 'eu' ORDER BY id")
	if got := fmt.Sprint(res.Rows); got != "[[1] [4]]" || strips() != "" {
		t.Fatalf("string-only filter: rows = %s, strips = %q", got, strips())
	}
}
