package logictest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"phoebedb"
)

// The oracle's fixed two-table universe. Distinct column names keep
// unqualified references unambiguous; the generator still qualifies at
// random to exercise both forms.
type oracleCol struct {
	name string
	typ  byte // 'i' int, 's' string, 'f' float
}

var (
	oracleT1 = []oracleCol{{"a", 'i'}, {"b", 'i'}, {"s", 's'}, {"f", 'f'}}
	oracleT2 = []oracleCol{{"x", 'i'}, {"y", 'i'}, {"g", 's'}, {"h", 'f'}}
	oracle   = map[string][]oracleCol{"t1": oracleT1, "t2": oracleT2}
)

type gen struct{ rng *rand.Rand }

func (g *gen) table() string {
	if g.rng.Intn(2) == 0 {
		return "t1"
	}
	return "t2"
}

func (g *gen) col(table string) oracleCol {
	cols := oracle[table]
	return cols[g.rng.Intn(len(cols))]
}

// literal draws from small pools so rows collide, join keys match, and
// groups repeat. Floats are quarter-multiples: exactly representable, so
// sums are order-independent and the engines agree bit-for-bit.
func (g *gen) literal(typ byte) string {
	switch typ {
	case 'i':
		return strconv.Itoa(g.rng.Intn(10))
	case 's':
		return "'v" + string(rune('a'+g.rng.Intn(5))) + "'"
	default:
		f := float64(g.rng.Intn(21)) * 0.25
		if g.rng.Intn(10) == 0 {
			return strconv.Itoa(int(f)) // int literal against a float column
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func (g *gen) ref(table string, c oracleCol) string {
	if g.rng.Intn(2) == 0 {
		return table + "." + c.name
	}
	return c.name
}

// cond renders one predicate over the named column: usually equality,
// sometimes a comparison or BETWEEN, so range planning, bound intersection,
// and the batch filters get continuous differential coverage (repeated
// columns across conjuncts arise naturally from random draws).
func (g *gen) cond(name string, typ byte) string {
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		ops := []string{"<", "<=", ">", ">=", "!="}
		return fmt.Sprintf("%s %s %s", name, ops[g.rng.Intn(len(ops))], g.literal(typ))
	case 3:
		return fmt.Sprintf("%s BETWEEN %s AND %s", name, g.literal(typ), g.literal(typ))
	default:
		return fmt.Sprintf("%s = %s", name, g.literal(typ))
	}
}

func (g *gen) where(table string) string {
	n := g.rng.Intn(3)
	var conds []string
	for i := 0; i < n; i++ {
		c := g.col(table)
		name := c.name
		if g.rng.Intn(50) == 0 {
			name = "zz" // deliberate unknown column: both sides must error
		}
		conds = append(conds, g.cond(name, c.typ))
	}
	if len(conds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

func (g *gen) insert() string {
	table := g.table()
	cols := oracle[table]
	n := 1 + g.rng.Intn(3)
	var rows []string
	for i := 0; i < n; i++ {
		vals := make([]string, len(cols))
		for j, c := range cols {
			vals[j] = g.literal(c.typ)
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(rows, ", "))
}

func (g *gen) update() string {
	table := g.table()
	c := g.col(table)
	set := fmt.Sprintf("%s = %s", c.name, g.literal(c.typ))
	if g.rng.Intn(3) == 0 {
		c2 := g.col(table)
		set += fmt.Sprintf(", %s = %s", c2.name, g.literal(c2.typ))
	}
	return fmt.Sprintf("UPDATE %s SET %s%s", table, set, g.where(table))
}

func (g *gen) delete() string {
	table := g.table()
	w := g.where(table)
	if w == "" { // keep full-table deletes rare so the tables stay populated
		c := g.col(table)
		w = fmt.Sprintf(" WHERE %s = %s", c.name, g.literal(c.typ))
	}
	return fmt.Sprintf("DELETE FROM %s%s", table, w)
}

// joinPairs are the type-compatible (t1 col, t2 col) join conditions.
var joinPairs = [][2]oracleCol{
	{{"a", 'i'}, {"x", 'i'}},
	{{"b", 'i'}, {"y", 'i'}},
	{{"s", 's'}, {"g", 's'}},
	{{"f", 'f'}, {"h", 'f'}},
}

func (g *gen) sel() string {
	join := g.rng.Intn(10) < 3
	group := g.rng.Intn(10) < 3

	outer, inner := "t1", "t2"
	if g.rng.Intn(2) == 0 {
		outer, inner = inner, outer
	}
	var from, joinClause string
	srcCols := func() []struct {
		table string
		col   oracleCol
	} {
		var out []struct {
			table string
			col   oracleCol
		}
		for _, c := range oracle[outer] {
			out = append(out, struct {
				table string
				col   oracleCol
			}{outer, c})
		}
		if join {
			for _, c := range oracle[inner] {
				out = append(out, struct {
					table string
					col   oracleCol
				}{inner, c})
			}
		}
		return out
	}()
	from = outer
	if join {
		p := joinPairs[g.rng.Intn(len(joinPairs))]
		l, r := "t1."+p[0].name, "t2."+p[1].name
		if g.rng.Intn(2) == 0 {
			l, r = r, l
		}
		joinClause = fmt.Sprintf(" JOIN %s ON %s = %s", inner, l, r)
	}

	pick := func() (string, oracleCol) {
		sc := srcCols[g.rng.Intn(len(srcCols))]
		return sc.table, sc.col
	}

	var exprs []string
	var orderCandidates []oracleCol
	if group {
		ng := 1 + g.rng.Intn(2)
		seen := map[string]bool{}
		for i := 0; i < ng; i++ {
			tbl, c := pick()
			if seen[c.name] {
				continue
			}
			seen[c.name] = true
			exprs = append(exprs, g.ref(tbl, c))
			orderCandidates = append(orderCandidates, c)
		}
		na := 1 + g.rng.Intn(3)
		for i := 0; i < na; i++ {
			tbl, c := pick()
			aggs := []string{"count", "min", "max"}
			if c.typ != 's' {
				aggs = append(aggs, "sum", "avg")
			}
			agg := aggs[g.rng.Intn(len(aggs))]
			exprs = append(exprs, fmt.Sprintf("%s(%s)", agg, g.ref(tbl, c)))
		}
		var groupBy []string
		for _, c := range orderCandidates {
			groupBy = append(groupBy, c.name)
		}
		q := fmt.Sprintf("SELECT %s FROM %s%s%s GROUP BY %s",
			strings.Join(exprs, ", "), from, joinClause, g.whereFor(srcCols), strings.Join(groupBy, ", "))
		if len(orderCandidates) > 0 && g.rng.Intn(2) == 0 {
			q += g.orderBy(orderCandidates)
		}
		if g.rng.Intn(4) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(4))
		}
		return q
	}

	if g.rng.Intn(5) == 0 {
		exprs = []string{"*"}
		for _, sc := range srcCols {
			orderCandidates = append(orderCandidates, sc.col)
		}
	} else {
		np := 1 + g.rng.Intn(3)
		for i := 0; i < np; i++ {
			tbl, c := pick()
			exprs = append(exprs, g.ref(tbl, c))
			orderCandidates = append(orderCandidates, c)
		}
	}
	q := fmt.Sprintf("SELECT %s FROM %s%s%s", strings.Join(exprs, ", "), from, joinClause, g.whereFor(srcCols))
	if g.rng.Intn(10) < 4 {
		q += g.orderBy(orderCandidates)
	}
	if g.rng.Intn(10) < 3 {
		q += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(5))
	}
	return q
}

// whereFor builds a WHERE over the (possibly joined) source columns.
func (g *gen) whereFor(srcCols []struct {
	table string
	col   oracleCol
}) string {
	n := g.rng.Intn(3)
	var conds []string
	for i := 0; i < n; i++ {
		sc := srcCols[g.rng.Intn(len(srcCols))]
		conds = append(conds, g.cond(g.ref(sc.table, sc.col), sc.col.typ))
	}
	if len(conds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

func (g *gen) orderBy(candidates []oracleCol) string {
	if len(candidates) == 0 {
		return ""
	}
	n := 1 + g.rng.Intn(2)
	seen := map[string]bool{}
	var keys []string
	for i := 0; i < n; i++ {
		c := candidates[g.rng.Intn(len(candidates))]
		if seen[c.name] {
			continue
		}
		seen[c.name] = true
		dir := ""
		switch g.rng.Intn(3) {
		case 0:
			dir = " ASC"
		case 1:
			dir = " DESC"
		}
		keys = append(keys, c.name+dir)
	}
	return " ORDER BY " + strings.Join(keys, ", ")
}

func (g *gen) next(i int) string {
	// Fixed DDL points exercise online backfill mid-stream: by #150 the
	// tables are populated, so CREATE INDEX must backfill. The unique
	// attempt at #700 almost surely collides — both sides must agree on
	// the failure (and on success, the oracle stops updating b).
	switch i {
	case 150:
		return "CREATE INDEX oracle_t1_a ON t1 (a)"
	case 400:
		return "CREATE INDEX oracle_t2_gx ON t2 (g, x)"
	case 700:
		return "CREATE UNIQUE INDEX oracle_t1_b ON t1 (b)"
	}
	switch r := g.rng.Intn(100); {
	case r < 30:
		return g.insert()
	case r < 40:
		return g.update()
	case r < 48:
		return g.delete()
	default:
		return g.sel()
	}
}

// TestDifferentialOracle replays a deterministic random workload against
// the engine and the naive reference, diffing every statement's outcome.
// Every 200 statements a cold-tier maintenance round runs — garbage
// collection, freezing, segment compaction, and a warm-queue drain — so
// the stream keeps reading and writing rows as they migrate between hot
// pages, L0 segments, and compacted cold levels. The reference knows
// nothing about temperature, so any divergence is a tiering bug.
func TestDifferentialOracle(t *testing.T) {
	const nStatements = 1200
	db := openDB(t)
	ref := NewReference()
	g := &gen{rng: rand.New(rand.NewSource(0xfeeb))}

	for _, ddl := range []string{
		"CREATE TABLE t1 (a INT, b INT, s STRING, f FLOAT)",
		"CREATE TABLE t2 (x INT, y INT, g STRING, h FLOAT)",
	} {
		if err := Diff(ddl, db.ExecSQL, ref); err != nil {
			t.Fatal(err)
		}
	}
	e := db.Engine()
	for _, tbl := range e.Tables() {
		tbl.Frozen.Fanout = 2 // small stream: compact eagerly
	}
	for i := 0; i < nStatements; i++ {
		stmt := g.next(i)
		if err := Diff(stmt, db.ExecSQL, ref); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if i%200 == 199 {
			e.CollectGarbage()
			e.CollectGarbage()
			if _, err := e.FreezeTables(2, ^uint32(0)); err != nil {
				t.Fatalf("statement %d: freeze: %v", i, err)
			}
			if _, err := e.CompactColdAll(); err != nil {
				t.Fatalf("statement %d: compact: %v", i, err)
			}
			if _, err := e.ProcessWarmQueue(0); err != nil {
				t.Fatalf("statement %d: warm: %v", i, err)
			}
		}
	}
	if st := e.ColdStats(); st.Segments == 0 || st.Compactions == 0 {
		t.Fatalf("oracle stream never built a cold tier: %+v", st)
	}
}

// prefixProbes are the join shapes TestDifferentialBoundPrefixJoin draws:
// a composite index's leading column, which the WHERE binds by =, on the
// table that declares it, and the (t1, t2) join pair whose column on that
// table is the index's second.
var prefixProbes = []struct {
	table string
	lead  oracleCol
	pair  [2]oracleCol
}{
	{"t2", oracleCol{"g", 's'}, [2]oracleCol{{"a", 'i'}, {"x", 'i'}}},
	{"t2", oracleCol{"h", 'f'}, [2]oracleCol{{"b", 'i'}, {"y", 'i'}}},
	{"t1", oracleCol{"f", 'f'}, [2]oracleCol{{"b", 'i'}, {"y", 'i'}}},
	{"t1", oracleCol{"s", 's'}, [2]oracleCol{{"a", 'i'}, {"x", 'i'}}},
}

// prefixJoin draws a join that can probe a composite index under its
// bound leading column: sometimes with that column bound twice (the last
// = wins) or by an int literal on a float column, plus random conditions
// on either table, a projection, a scalar aggregate, ORDER BY and LIMIT.
func (g *gen) prefixJoin() string {
	p := prefixProbes[g.rng.Intn(len(prefixProbes))]
	outer, inner := "t1", "t2"
	if g.rng.Intn(2) == 0 {
		outer, inner = inner, outer
	}
	l, r := "t1."+p.pair[0].name, "t2."+p.pair[1].name
	if g.rng.Intn(2) == 0 {
		l, r = r, l
	}
	bind := func() string { return g.ref(p.table, p.lead) + " = " + g.literal(p.lead.typ) }
	conds := []string{bind()}
	if g.rng.Intn(4) == 0 {
		conds = append(conds, bind())
	}
	for n := g.rng.Intn(3); n > 0; n-- {
		tbl := g.table()
		c := g.col(tbl)
		conds = append(conds, g.cond(g.ref(tbl, c), c.typ))
	}
	g.rng.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	from := fmt.Sprintf(" FROM %s JOIN %s ON %s = %s WHERE %s", outer, inner, l, r, strings.Join(conds, " AND "))
	if g.rng.Intn(5) == 0 {
		return "SELECT count(*), sum(b), min(g), max(h)" + from
	}
	var exprs []string
	var order []oracleCol
	if g.rng.Intn(4) == 0 {
		exprs = []string{"*"}
		order = append(append(order, oracleT1...), oracleT2...)
	} else {
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			tbl := g.table()
			c := g.col(tbl)
			exprs = append(exprs, g.ref(tbl, c))
			order = append(order, c)
		}
	}
	q := "SELECT " + strings.Join(exprs, ", ") + from
	if g.rng.Intn(10) < 4 {
		q += g.orderBy(order)
	}
	if g.rng.Intn(10) < 3 {
		q += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(5))
	}
	return q
}

// TestDifferentialBoundPrefixJoin diffs, against the reference, joins
// whose probe side has a composite index under a bound leading column,
// amid writes and cold-tier maintenance rounds: the probe then reads hot
// rows and frozen ones, through unique point lookups and prefix scans.
func TestDifferentialBoundPrefixJoin(t *testing.T) {
	db := openDB(t)
	ref := NewReference()
	g := &gen{rng: rand.New(rand.NewSource(0xb0a7))}
	exec := func(i int, stmt string) {
		t.Helper()
		if err := Diff(stmt, db.ExecSQL, ref); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	for _, ddl := range []string{
		"CREATE TABLE t1 (a INT, b INT, s STRING, f FLOAT)",
		"CREATE TABLE t2 (x INT, y INT, g STRING, h FLOAT)",
		"CREATE INDEX t2_gx ON t2 (g, x)",
		"CREATE INDEX t2_hy ON t2 (h, y)",
		"CREATE INDEX t1_fb ON t1 (f, b)",
		"CREATE INDEX t1_sa ON t1 (s, a)",
	} {
		exec(-1, ddl)
	}
	e := db.Engine()
	for _, tbl := range e.Tables() {
		tbl.Frozen.Fanout = 2
	}
	for i := 0; i < 600; i++ {
		var stmt string
		switch r := g.rng.Intn(10); {
		case r < 4:
			stmt = g.insert()
		case r < 5:
			stmt = g.update()
		case r < 6:
			stmt = g.delete()
		default:
			stmt = g.prefixJoin()
		}
		exec(i, stmt)
		if i%150 == 149 {
			e.CollectGarbage()
			e.CollectGarbage()
			if _, err := e.FreezeTables(2, ^uint32(0)); err != nil {
				t.Fatalf("statement %d: freeze: %v", i, err)
			}
			if _, err := e.CompactColdAll(); err != nil {
				t.Fatalf("statement %d: compact: %v", i, err)
			}
			if _, err := e.ProcessWarmQueue(0); err != nil {
				t.Fatalf("statement %d: warm: %v", i, err)
			}
		}
	}
	if st := e.ColdStats(); st.Segments == 0 {
		t.Fatalf("the stream never froze a row: %+v", st)
	}
}

// One string conjunct must not cost a full scan its strips: over hot
// pages, an L0 segment and a compacted one, a fixed-width range ANDed with
// a string equality returns the reference's rows, and the range still
// reaches the cold zone maps.
func TestMixedWidthFilterPrunesColdBlocks(t *testing.T) {
	db, err := phoebedb.Open(phoebedb.Options{Dir: t.TempDir(), Workers: 2, SlotsPerWorker: 4, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := NewReference()
	exec := func(stmt string) {
		t.Helper()
		if err := Diff(stmt, db.ExecSQL, ref); err != nil {
			t.Fatal(err)
		}
	}
	exec("CREATE TABLE ev (seq INT, kind STRING, score FLOAT)")
	for i := 0; i < 480; i += 8 {
		var vals []string
		for j := i; j < i+8; j++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s', %d.5)", j, []string{"info", "warn", "err"}[j%3], j%50))
		}
		exec("INSERT INTO ev VALUES " + strings.Join(vals, ", "))
	}
	e := db.Engine()
	tb, err := e.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	tb.Frozen.Fanout = 2
	tb.Frozen.BlockRows = 16
	e.CollectGarbage()
	e.CollectGarbage()
	for i := 0; i < 2; i++ { // two L0 segments, merged into one level-1
		if n, err := e.FreezeTables(6, ^uint32(0)); err != nil || n == 0 {
			t.Fatalf("freeze %d = (%d, %v)", i, n, err)
		}
	}
	if _, err := e.CompactColdAll(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FreezeTables(6, ^uint32(0)); err != nil || n == 0 { // a fresh L0
		t.Fatalf("post-compact freeze = (%d, %v)", n, err)
	}
	if st := e.ColdStats(); st.MaxLevel < 1 || st.Segments < 2 || tb.Store.MaxFrozenRowID() >= tb.Store.NextRowID() {
		t.Fatalf("tier shape: %+v, frontier %d of %d", st, tb.Store.MaxFrozenRowID(), tb.Store.NextRowID())
	}
	before := e.ColdStats()
	for _, q := range []string{
		"SELECT seq, score FROM ev WHERE seq >= 40 AND seq < 90 AND kind = 'warn'",
		"SELECT seq FROM ev WHERE kind != 'info' AND seq BETWEEN 200 AND 330",
		"SELECT count(*), sum(score) FROM ev WHERE kind = 'err' AND seq > 400",
		"SELECT seq FROM ev WHERE kind = 'warn' AND seq > 9000",
	} {
		exec(q)
	}
	if after := e.ColdStats(); after.ScanBlocksPruned == before.ScanBlocksPruned {
		t.Fatalf("four range+string filters fetched %d cold blocks and pruned none",
			after.ScanBlocks-before.ScanBlocks)
	}
}

// Float sums depend on the order rows are added in. After a DELETE and
// garbage collection, inserts reuse the freed slots, so the engine's scan
// order departs from the reference's insertion order and sums over
// non-dyadic floats differ in the last bits. The oracle must still agree.
func TestFloatSumsAfterSlotReuse(t *testing.T) {
	db := openDB(t)
	ref := NewReference()
	exec := func(stmt string) {
		t.Helper()
		if err := Diff(stmt, db.ExecSQL, ref); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(from, to int) {
		for i := from; i < to; i += 60 {
			var vals []string
			for j := i; j < i+60 && j < to; j++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, %g)", j, j%7, float64(j)*1.1+0.01))
			}
			exec("INSERT INTO fs VALUES " + strings.Join(vals, ", "))
		}
	}
	exec("CREATE TABLE fs (id INT, k INT, f FLOAT)")
	insert(0, 1800)
	exec("DELETE FROM fs WHERE id < 600")
	db.CollectGarbage()
	db.CollectGarbage()
	insert(1800, 2400)
	exec("SELECT sum(f) FROM fs")
	exec("SELECT k, count(*), sum(f) FROM fs GROUP BY k")
}
