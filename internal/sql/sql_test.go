package sql

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"phoebedb/internal/rel"
)

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x = 'it''s' AND y = -3.5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", "=", "it's", "AND", "y", "=", "-3.5", ""}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("texts = %q", texts)
	}
	if kinds[9] != tokString || kinds[13] != tokNumber {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select ' unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("select @"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse("CREATE TABLE users (id INT, name STRING, score FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(CreateTableStmt)
	if ct.Table != "users" || len(ct.Cols) != 3 {
		t.Fatalf("stmt = %+v", ct)
	}
	if ct.Cols[0].Type != rel.TInt64 || ct.Cols[1].Type != rel.TString || ct.Cols[2].Type != rel.TFloat64 {
		t.Fatalf("types = %+v", ct.Cols)
	}
	// Type synonyms.
	stmt, err = Parse("create table x (a bigint, b text, c double)")
	if err != nil {
		t.Fatal(err)
	}
	ct = stmt.(CreateTableStmt)
	if ct.Cols[0].Type != rel.TInt64 || ct.Cols[1].Type != rel.TString || ct.Cols[2].Type != rel.TFloat64 {
		t.Fatalf("synonym types = %+v", ct.Cols)
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse("CREATE UNIQUE INDEX users_pk ON users (id)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(CreateIndexStmt)
	if !ci.Unique || ci.Index != "users_pk" || ci.Table != "users" || len(ci.Cols) != 1 {
		t.Fatalf("stmt = %+v", ci)
	}
	stmt, _ = Parse("CREATE INDEX ab ON t (a, b)")
	ci = stmt.(CreateIndexStmt)
	if ci.Unique || len(ci.Cols) != 2 {
		t.Fatalf("stmt = %+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 {
		t.Fatalf("stmt = %+v", ins)
	}
	if ins.Rows[0][0].I != 1 || ins.Rows[0][1].S != "a" || ins.Rows[0][2].F != 2.5 {
		t.Fatalf("row = %v", ins.Rows[0])
	}
	if ins.Rows[1][0].I != 2 {
		t.Fatalf("row = %v", ins.Rows[1])
	}
}

func TestParseSelect(t *testing.T) {
	stmt, err := Parse("SELECT a, b FROM t WHERE a = 1 AND b = 'x' LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	if sel.Table != "t" || len(sel.Exprs) != 2 || len(sel.Where) != 2 || sel.Limit != 10 {
		t.Fatalf("stmt = %+v", sel)
	}
	if sel.Exprs[0].Ref.Col != "a" || sel.Exprs[0].Agg != AggNone {
		t.Fatalf("exprs = %+v", sel.Exprs)
	}
	stmt, _ = Parse("SELECT * FROM t")
	sel = stmt.(SelectStmt)
	if sel.Exprs != nil || sel.Where != nil || sel.Limit != 0 {
		t.Fatalf("star stmt = %+v", sel)
	}
}

func TestParseSelectShapes(t *testing.T) {
	stmt, err := Parse("SELECT o.id, count(*), sum(i.qty) FROM o JOIN i ON o.id = i.oid WHERE o.region = 'eu' GROUP BY o.id ORDER BY o.id DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	if sel.Join == nil || sel.Join.Table != "i" || sel.Join.Left != (ColRef{Table: "o", Col: "id"}) || sel.Join.Right != (ColRef{Table: "i", Col: "oid"}) {
		t.Fatalf("join = %+v", sel.Join)
	}
	if len(sel.Exprs) != 3 || !sel.Exprs[1].Star || sel.Exprs[1].Agg != AggCount || sel.Exprs[2].Agg != AggSum || sel.Exprs[2].Ref != (ColRef{Table: "i", Col: "qty"}) {
		t.Fatalf("exprs = %+v", sel.Exprs)
	}
	if len(sel.Where) != 1 || sel.Where[0].Table != "o" || sel.Where[0].Col != "region" {
		t.Fatalf("where = %+v", sel.Where)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != (ColRef{Table: "o", Col: "id"}) {
		t.Fatalf("group by = %+v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.OrderBy[0].Ref.Col != "id" {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Fatalf("limit = %d", sel.Limit)
	}
	// ASC is accepted and is the default; min/max/avg parse as aggregates.
	stmt, err = Parse("SELECT min(a), max(a), avg(a) FROM t ORDER BY a ASC")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(SelectStmt)
	if sel.Exprs[0].Agg != AggMin || sel.Exprs[1].Agg != AggMax || sel.Exprs[2].Agg != AggAvg || sel.OrderBy[0].Desc {
		t.Fatalf("stmt = %+v", sel)
	}
	// SUM(*) is rejected; a column named like an aggregate still works.
	if _, err := Parse("SELECT sum(*) FROM t"); err == nil {
		t.Fatal("sum(*) parsed")
	}
	stmt, err = Parse("SELECT count FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if sel := stmt.(SelectStmt); sel.Exprs[0].Agg != AggNone || sel.Exprs[0].Ref.Col != "count" {
		t.Fatalf("bare count column = %+v", sel.Exprs)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	stmt, err := Parse("UPDATE t SET a = 5, b = 'z' WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(UpdateStmt)
	if up.Table != "t" || len(up.Set) != 2 || up.Set["a"].I != 5 || len(up.Where) != 1 {
		t.Fatalf("stmt = %+v", up)
	}
	stmt, err = Parse("DELETE FROM t WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(DeleteStmt)
	if del.Table != "t" || len(del.Where) != 1 {
		t.Fatalf("stmt = %+v", del)
	}
}

func TestParseComparisons(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a >= 2 AND b < 'm' AND c != 1.5 AND d BETWEEN 3 AND 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	want := []Cond{
		{Col: "a", Op: rel.CmpGe, Val: rel.Int(2)},
		{Col: "b", Op: rel.CmpLt, Val: rel.Str("m")},
		{Col: "c", Op: rel.CmpNe, Val: rel.Float(1.5)},
		{Col: "d", Op: rel.CmpGe, Val: rel.Int(3)},
		{Col: "d", Op: rel.CmpLe, Val: rel.Int(7)},
	}
	if len(sel.Where) != len(want) {
		t.Fatalf("Where = %+v", sel.Where)
	}
	for i, c := range want {
		if sel.Where[i] != c {
			t.Errorf("Where[%d] = %+v, want %+v", i, sel.Where[i], c)
		}
	}
	// BETWEEN's AND binds to the range; a further conjunct still parses.
	stmt, err = Parse("DELETE FROM t WHERE d BETWEEN 3 AND 7 AND e = 1")
	if err != nil {
		t.Fatal(err)
	}
	if del := stmt.(DeleteStmt); len(del.Where) != 3 || del.Where[2].Col != "e" {
		t.Fatalf("Where = %+v", del.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE t",
		"SELECT FROM t",
		"CREATE TABLE t (a blob)",
		"INSERT INTO t VALUES 1, 2",
		"SELECT * FROM t WHERE a ! 1",            // bare ! is not an operator
		"SELECT * FROM t WHERE a BETWEEN 1",      // BETWEEN needs AND hi
		"SELECT * FROM t WHERE a BETWEEN 1 OR 2", // ... spelled AND
		"SELECT * FROM t WHERE a >",              // operator without literal
		"UPDATE t SET",
		"SELECT * FROM t extra",
		"SELECT * FROM t LIMIT 'x'",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("parse accepted %q", q)
		}
	}
}

// --- Planner ----------------------------------------------------------------

func planSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "a", Type: rel.TInt64},
		rel.Column{Name: "b", Type: rel.TInt64},
		rel.Column{Name: "c", Type: rel.TString},
	)
}

func TestPlannerPicksLongestPrefix(t *testing.T) {
	schema := planSchema()
	indexes := []IndexMeta{
		{Name: "ix_a", Cols: []int{0}, Unique: false},
		{Name: "ix_ab", Cols: []int{0, 1}, Unique: true},
	}
	p, err := planWhere(schema, indexes, []Cond{
		{Col: "a", Val: rel.Int(1)},
		{Col: "b", Val: rel.Int(2)},
		{Col: "c", Val: rel.Str("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.index != "ix_ab" || len(p.prefixVals) != 2 {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.residual) != 1 || p.residual[0].Col != "c" {
		t.Fatalf("residual = %+v", p.residual)
	}
}

func TestPlannerPrefixOnly(t *testing.T) {
	schema := planSchema()
	indexes := []IndexMeta{{Name: "ix_ab", Cols: []int{0, 1}, Unique: true}}
	// Only b is constrained: the index prefix (a) is not covered -> scan.
	p, err := planWhere(schema, indexes, []Cond{{Col: "b", Val: rel.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if p.index != "" || len(p.residual) != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlannerNoWhere(t *testing.T) {
	p, err := planWhere(planSchema(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.index != "" || len(p.residual) != 0 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := planWhere(planSchema(), nil, []Cond{{Col: "zzz", Val: rel.Int(1)}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := planWhere(planSchema(), nil, []Cond{{Col: "a", Val: rel.Str("x")}}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestPlannerIntToFloatCoercion(t *testing.T) {
	schema := rel.NewSchema(rel.Column{Name: "f", Type: rel.TFloat64})
	p, err := planWhere(schema, nil, []Cond{{Col: "f", Val: rel.Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if p.residual[0].Val.Kind != rel.TFloat64 || p.residual[0].Val.F != 3 {
		t.Fatalf("coerced = %+v", p.residual[0].Val)
	}
}

// --- Executor against a fake txn ---------------------------------------------

type fakeCat struct {
	schema  *rel.Schema
	indexes []IndexMeta
}

func (c fakeCat) CreateTable(string, *rel.Schema) error            { return nil }
func (c fakeCat) CreateIndex(string, string, []string, bool) error { return nil }
func (c fakeCat) TableSchema(string) (*rel.Schema, error)          { return c.schema, nil }
func (c fakeCat) IndexInfo(string) ([]IndexMeta, error)            { return c.indexes, nil }

type fakeTxn struct {
	rows    map[rel.RowID]rel.Row
	nextRID rel.RowID
	scans   []string // access-path audit trail
}

func (f *fakeTxn) Insert(table string, row rel.Row) (rel.RowID, error) {
	f.nextRID++
	f.rows[f.nextRID] = row.Clone()
	return f.nextRID, nil
}

func (f *fakeTxn) ScanIndex(table, index string, vals []rel.Value, fn func(rel.RowID, rel.Row) bool) error {
	f.scans = append(f.scans, "index:"+index)
	for rid, row := range f.rows {
		ok := true
		for i, v := range vals {
			if !row[i].Equal(v) { // fake: index cols == leading cols
				ok = false
			}
		}
		if ok && !fn(rid, row) {
			return nil
		}
	}
	return nil
}

func (f *fakeTxn) ScanIndexRange(table, index string, prefix []rel.Value, lo, hi rel.Value,
	hasLo, hasHi, loIncl, hiIncl bool, fn func(rel.RowID, rel.Row) bool) error {
	return errors.New("fakeTxn: no range scans")
}

func (f *fakeTxn) ScanTableFiltered(table string, preds []rel.ColPred, fn func(rel.RowID, rel.Row) bool) error {
	f.scans = append(f.scans, "table")
	for rid, row := range f.rows {
		ok := true
		for _, p := range preds {
			ok = ok && p.EvalRow(row)
		}
		if ok && !fn(rid, row) {
			return nil
		}
	}
	return nil
}

func (f *fakeTxn) AggTableFiltered(string, []rel.ColPred, []rel.AggSpec) ([]rel.Value, int64, error) {
	return nil, 0, errors.New("fakeTxn: no aggregates")
}

func (f *fakeTxn) Update(table string, rid rel.RowID, set map[string]rel.Value) error {
	row := f.rows[rid]
	row[1] = set["b"]
	return nil
}

func (f *fakeTxn) Delete(table string, rid rel.RowID) error {
	delete(f.rows, rid)
	return nil
}

func TestExecUsesIndexPath(t *testing.T) {
	cat := fakeCat{
		schema:  planSchema(),
		indexes: []IndexMeta{{Name: "ix_a", Cols: []int{0}, Unique: true}},
	}
	tx := &fakeTxn{rows: map[rel.RowID]rel.Row{}}
	stmt, _ := Parse("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y')")
	res, err := Exec(cat, tx, stmt)
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert = (%+v, %v)", res, err)
	}

	stmt, _ = Parse("SELECT b FROM t WHERE a = 1")
	res, err = Exec(cat, tx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 || res.Columns[0] != "b" {
		t.Fatalf("select = %+v", res)
	}
	if len(tx.scans) == 0 || !strings.HasPrefix(tx.scans[len(tx.scans)-1], "index:") {
		t.Fatalf("did not use index path: %v", tx.scans)
	}

	// No usable index -> table scan.
	stmt, _ = Parse("SELECT * FROM t WHERE c = 'y'")
	res, err = Exec(cat, tx, stmt)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("scan select = (%+v, %v)", res, err)
	}
	if tx.scans[len(tx.scans)-1] != "table" {
		t.Fatalf("expected table scan: %v", tx.scans)
	}
}

func TestExecErrors(t *testing.T) {
	cat := fakeCat{schema: planSchema()}
	tx := &fakeTxn{rows: map[rel.RowID]rel.Row{}}
	stmt, _ := Parse("INSERT INTO t VALUES (1, 2)")
	if _, err := Exec(cat, tx, stmt); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	stmt, _ = Parse("SELECT zzz FROM t")
	if _, err := Exec(cat, tx, stmt); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	stmt, _ = Parse("UPDATE t SET zzz = 1")
	if _, err := Exec(cat, tx, stmt); err == nil {
		t.Fatal("unknown SET column accepted")
	}
	ddl, _ := Parse("CREATE TABLE x (a int)")
	if _, err := Exec(cat, tx, ddl); err == nil {
		t.Fatal("DDL inside txn accepted")
	}
	if !IsDDL(ddl) {
		t.Fatal("IsDDL wrong")
	}
	if _, err := ExecDDL(cat, stmt); err == nil {
		t.Fatal("ExecDDL accepted DML")
	}
}
