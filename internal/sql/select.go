package sql

import (
	"fmt"
	"sort"
	"strings"

	"phoebedb/internal/rel"
)

// SELECT planning and execution. planSelect makes every decision a SELECT
// needs once — the source (stat table, one table, or a join), each side's
// access path, the join strategy, whether the aggregate folds inside the
// engine's scan, sort avoidance, the early-stop LIMIT and the output
// columns — into one selectPlan value. execSelect runs that value and
// EXPLAIN renders it, so what EXPLAIN shows is what runs, traced or not.
//
// A plan produces rows one of five ways (selectKind): a plain projection
// streams from the scan into the sink; an all-aggregate scalar select list
// over a strip-filtered full scan folds inside the engine (§5.2); every
// other shape gathers its matching rows — cloned, since scan callbacks only
// borrow their row — from one table, a join, or a stat table, and shapes
// them:
//
//	gather (scan / join)  →  aggregate  →  sort  →  limit  →  project
//
// LIMIT stops the gather early whenever output order is scan order, and an
// ORDER BY whose keys the chosen index scan already delivers skips the sort
// (counted in Counters.SortAvoided).

// srcSchema describes the row shape a shaped SELECT operates on: one
// table, or two concatenated (outer ++ inner) for a join. A value with
// room for both, so a single-table source costs no allocation.
type srcSchema struct {
	n       int // tables in use
	tables  [2]string
	schemas [2]*rel.Schema
	offsets [2]int
	width   int
}

func singleSource(table string, schema *rel.Schema) srcSchema {
	return srcSchema{n: 1, tables: [2]string{table}, schemas: [2]*rel.Schema{schema}, width: schema.NumCols()}
}

func joinSource(outer string, os *rel.Schema, inner string, is *rel.Schema) srcSchema {
	return srcSchema{
		n:       2,
		tables:  [2]string{outer, inner},
		schemas: [2]*rel.Schema{os, is},
		offsets: [2]int{0, os.NumCols()},
		width:   os.NumCols() + is.NumCols(),
	}
}

// resolve maps a column reference to its position in the combined row.
// Unqualified names must be unambiguous across the source tables.
func (ss *srcSchema) resolve(ref ColRef) (int, error) {
	if ref.Table != "" {
		for i := 0; i < ss.n; i++ {
			if ss.tables[i] == ref.Table {
				if pos := ss.schemas[i].ColIndex(ref.Col); pos >= 0 {
					return ss.offsets[i] + pos, nil
				}
				return 0, fmt.Errorf("sql: unknown column %q.%q", ref.Table, ref.Col)
			}
		}
		return 0, fmt.Errorf("sql: unknown table %q in column reference", ref.Table)
	}
	found := -1
	for i := 0; i < ss.n; i++ {
		if pos := ss.schemas[i].ColIndex(ref.Col); pos >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", ref.Col)
			}
			found = ss.offsets[i] + pos
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", ref.Col)
	}
	return found, nil
}

// colMeta returns the column definition behind a combined-row position.
func (ss *srcSchema) colMeta(pos int) rel.Column {
	for i := ss.n - 1; i >= 0; i-- {
		if pos >= ss.offsets[i] {
			return ss.schemas[i].Cols[pos-ss.offsets[i]]
		}
	}
	return rel.Column{}
}

// hasAggs reports whether any select-list item is an aggregate.
func hasAggs(exprs []SelectExpr) bool {
	for _, e := range exprs {
		if e.Agg != AggNone {
			return true
		}
	}
	return false
}

// checkWhereQualifiers rejects table qualifiers naming anything but the
// single table in scope (resolveWhere itself ignores qualifiers).
func checkWhereQualifiers(table string, where []Cond) error {
	for _, c := range where {
		if c.Table != "" && c.Table != table {
			return fmt.Errorf("sql: unknown table %q in column reference", c.Table)
		}
	}
	return nil
}

// compareValues orders two values of the same column. Mixed kinds cannot
// occur through the type checker but still order deterministically.
func compareValues(a, b rel.Value) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case rel.TInt64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	case rel.TFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
	case rel.TString:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// outCol is one resolved output column of a shaped SELECT.
type outCol struct {
	name string
	agg  AggFunc
	star bool // COUNT(*)
	pos  int  // combined-row position (aggregate argument, or plain output)
	spec int  // in-scan fold: index of the column's AggSpec (-1: the row count)
}

func colNames(outCols []outCol) []string {
	names := make([]string, len(outCols))
	for i, oc := range outCols {
		names[i] = oc.name
	}
	return names
}

// buildOutCols resolves the select list against the source.
func buildOutCols(ss *srcSchema, s SelectStmt) ([]outCol, error) {
	if s.Exprs == nil {
		if len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		var out []outCol
		for i := 0; i < ss.n; i++ {
			for j, c := range ss.schemas[i].Cols {
				out = append(out, outCol{name: c.Name, pos: ss.offsets[i] + j})
			}
		}
		return out, nil
	}
	out := make([]outCol, 0, len(s.Exprs))
	for _, e := range s.Exprs {
		oc := outCol{agg: e.Agg, star: e.Star}
		if e.Star {
			oc.name = "count(*)"
			out = append(out, oc)
			continue
		}
		pos, err := ss.resolve(e.Ref)
		if err != nil {
			return nil, err
		}
		oc.pos = pos
		label := e.Ref.Col
		if e.Ref.Table != "" {
			label = e.Ref.Table + "." + e.Ref.Col
		}
		if e.Agg != AggNone {
			if (e.Agg == AggSum || e.Agg == AggAvg) && ss.colMeta(pos).Type == rel.TString {
				return nil, fmt.Errorf("sql: %s(%s): argument must be numeric", e.Agg, label)
			}
			oc.name = fmt.Sprintf("%s(%s)", e.Agg, label)
		} else {
			oc.name = e.Ref.Col
		}
		out = append(out, oc)
	}
	return out, nil
}

// shapeRows applies aggregation, ordering, LIMIT, and projection to the
// gathered rows, which it owns (sorting is in place).
func (sp *selectPlan) shapeRows(rows []rel.Row, c *Counters, tr *execTrace, sink RowSink) (int, error) {
	s := &sp.s
	var keys []int // ORDER BY key positions in rows
	if len(s.OrderBy) > 0 && !sp.sorted {
		keys = make([]int, len(s.OrderBy))
		for i, k := range s.OrderBy {
			p, err := sp.ss.resolve(k.Ref)
			if err != nil {
				return 0, err
			}
			keys[i] = p
		}
	}
	if sp.aggregate {
		var err error
		if rows, err = sp.aggregateRows(rows, keys, tr); err != nil {
			return 0, err
		}
	}
	if len(keys) > 0 {
		sop := tr.op(opSort)
		sstart := sop.begin()
		sort.SliceStable(rows, func(i, j int) bool {
			for k, p := range keys {
				if cmp := compareValues(rows[i][p], rows[j][p]); cmp != 0 {
					return (cmp < 0) != s.OrderBy[k].Desc
				}
			}
			return false
		})
		sop.rows(int64(len(rows)), int64(len(rows)))
		sop.end(sstart)
		c.Sorts.Add(1)
	}
	if s.Limit > 0 {
		in := len(rows)
		rows = rows[:min(in, s.Limit)]
		tr.op(opLimit).count(int64(in), int64(len(rows)))
	}
	return sp.project(rows, tr, sink), nil
}

// project hands the shaped rows to the sink, picking each output column
// out of its row; an aggregate's rows already are output rows.
func (sp *selectPlan) project(rows []rel.Row, tr *execTrace, sink RowSink) int {
	pop := tr.op(opProject)
	pstart := pop.begin()
	sink.Header(colNames(sp.outCols))
	var out rel.Row
	if !sp.aggregate {
		out = make(rel.Row, len(sp.outCols))
	}
	n := 0
	for _, row := range rows {
		if out != nil {
			for j, oc := range sp.outCols {
				out[j] = row[oc.pos]
			}
			row = out
		}
		n++
		if !sink.Row(row[:len(sp.outCols)]) {
			break
		}
	}
	pop.rows(int64(len(rows)), int64(n))
	pop.end(pstart)
	return n
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	minmax rel.Value
	seen   bool
}

func (st *aggState) add(agg AggFunc, v rel.Value) {
	st.count++
	switch agg {
	case AggSum, AggAvg:
		if v.Kind == rel.TInt64 {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else {
			st.sumF += v.F
		}
	case AggMin:
		if !st.seen || compareValues(v, st.minmax) < 0 {
			st.minmax = v
		}
	case AggMax:
		if !st.seen || compareValues(v, st.minmax) > 0 {
			st.minmax = v
		}
	}
	st.seen = true
}

// zeroValue is this no-NULL dialect's result for value aggregates over
// an empty input: the zero of the argument's column type.
func zeroValue(ct rel.Type) rel.Value {
	switch ct {
	case rel.TFloat64:
		return rel.Float(0)
	case rel.TString:
		return rel.Str("")
	}
	return rel.Int(0)
}

// final renders the aggregate's value; ct is the argument column's type.
func (st *aggState) final(agg AggFunc, ct rel.Type) rel.Value {
	switch agg {
	case AggCount:
		return rel.Int(st.count)
	case AggSum:
		if !st.seen {
			return zeroValue(ct)
		}
		if ct == rel.TFloat64 {
			return rel.Float(st.sumF)
		}
		return rel.Int(st.sumI)
	case AggAvg:
		if st.count == 0 {
			return rel.Float(0)
		}
		return rel.Float(st.sumF / float64(st.count))
	case AggMin, AggMax:
		if !st.seen {
			return zeroValue(ct)
		}
		return st.minmax
	}
	return rel.Value{}
}

// aggregateRows hash-aggregates the combined rows by the GROUP BY keys (or
// into a single scalar group), in encoded group-key order — deterministic.
// Each result row is the output columns followed by the group's key
// values; keys, the ORDER BY positions, are remapped onto the latter, so
// ORDER BY may only name grouping columns.
func (sp *selectPlan) aggregateRows(rows []rel.Row, keys []int, tr *execTrace) ([]rel.Row, error) {
	s, ss, outCols := &sp.s, &sp.ss, sp.outCols
	width := len(outCols)
	groupPos := make([]int, len(s.GroupBy))
	for i, ref := range s.GroupBy {
		p, err := ss.resolve(ref)
		if err != nil {
			return nil, err
		}
		groupPos[i] = p
	}
	inGroup := func(pos int) int {
		for j, gp := range groupPos {
			if gp == pos {
				return j
			}
		}
		return -1
	}
	// Every plain output column must be one of the grouping columns.
	for _, oc := range outCols {
		if oc.agg == AggNone && inGroup(oc.pos) < 0 {
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", oc.name)
		}
	}
	for i, p := range keys {
		gi := inGroup(p)
		if gi < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %q must appear in GROUP BY", s.OrderBy[i].Ref.Col)
		}
		keys[i] = width + gi
	}
	type group struct {
		row    rel.Row // output columns, then the grouping values
		states []aggState
	}
	newGroup := func() *group {
		return &group{row: make(rel.Row, width+len(groupPos)), states: make([]aggState, width)}
	}
	aop := tr.op(opAgg)
	astart := aop.begin()
	groups := make(map[string]*group)
	keyBuf := make([]rel.Value, len(groupPos))
	var keyBytes []byte
	for _, row := range rows {
		for i, gp := range groupPos {
			keyBuf[i] = row[gp]
		}
		keyBytes = rel.EncodeKey(keyBytes[:0], keyBuf...)
		g := groups[string(keyBytes)]
		if g == nil {
			g = newGroup()
			copy(g.row[width:], keyBuf)
			groups[string(keyBytes)] = g
		}
		for i, oc := range outCols {
			if oc.agg == AggNone {
				continue
			}
			var v rel.Value
			if !oc.star {
				v = row[oc.pos]
			}
			g.states[i].add(oc.agg, v)
		}
	}
	if len(groupPos) == 0 && len(groups) == 0 {
		// A scalar aggregate over zero rows still yields one row.
		groups[""] = newGroup()
	}
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Strings(order)
	out := make([]rel.Row, len(order))
	for i, k := range order {
		g := groups[k]
		for j, oc := range outCols {
			switch {
			case oc.agg == AggNone:
				g.row[j] = g.row[width+inGroup(oc.pos)]
			case oc.star:
				g.row[j] = g.states[j].final(oc.agg, rel.TInt64)
			default:
				g.row[j] = g.states[j].final(oc.agg, ss.colMeta(oc.pos).Type)
			}
		}
		out[i] = g.row
	}
	aop.rows(int64(len(rows)), int64(len(out)))
	aop.end(astart)
	return out, nil
}

// fold runs the in-scan aggregate and emits its one row.
func (sp *selectPlan) fold(tx Txn, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	noteLabel(tx, foldLabel+" on "+sp.from.name)
	op := tr.op(opScan)
	start := op.begin()
	vals, n, err := tx.AggTableFiltered(sp.from.name, sp.strips, sp.specs)
	op.rows(n, n)
	op.end(start)
	if err != nil {
		return 0, err
	}
	aop := tr.op(opAgg)
	astart := aop.begin()
	row := sc.rowBuf(len(sp.outCols))
	for i, oc := range sp.outCols {
		switch {
		case oc.agg == AggCount:
			row[i] = rel.Int(n)
		case oc.agg == AggAvg:
			if n == 0 {
				row[i] = rel.Float(0)
				break
			}
			sum := vals[oc.spec]
			f := sum.F
			if sum.Kind == rel.TInt64 {
				f = float64(sum.I)
			}
			row[i] = rel.Float(f / float64(n))
		case n == 0:
			row[i] = zeroValue(sp.ss.colMeta(oc.pos).Type)
		default:
			row[i] = vals[oc.spec]
		}
	}
	aop.rows(n, 1)
	aop.end(astart)
	return sp.project([]rel.Row{row}, tr, sink), nil
}

// orderSatisfied reports whether the planned index scan already emits
// rows in ORDER BY order: every key ascending, and the key columns
// matching the index columns after the equality prefix, in sequence.
// Columns pinned by the equality prefix are constant within the scan and
// satisfy a key anywhere.
func orderSatisfied(ss *srcSchema, indexes []IndexMeta, p plan, keys []OrderKey) (bool, error) {
	if p.index == "" {
		return false, nil
	}
	var ix *IndexMeta
	for i := range indexes {
		if indexes[i].Name == p.index {
			ix = &indexes[i]
			break
		}
	}
	if ix == nil {
		return false, nil
	}
	prefix := len(p.prefixVals)
	next := prefix
	for _, key := range keys {
		if key.Desc {
			return false, nil
		}
		pos, err := ss.resolve(key.Ref)
		if err != nil {
			return false, err
		}
		pinned := false
		for _, pc := range ix.Cols[:prefix] {
			if pc == pos {
				pinned = true
				break
			}
		}
		if pinned {
			continue
		}
		if next < len(ix.Cols) && ix.Cols[next] == pos {
			next++
			continue
		}
		return false, nil
	}
	return true, nil
}

// selectKind is how a planned SELECT produces its rows.
type selectKind uint8

const (
	// selStream projects matching rows straight from the scan into the sink.
	selStream selectKind = iota
	// selFold folds an all-aggregate select list inside the engine's scan.
	selFold
	// selGather clones one table's matching rows, then shapes them.
	selGather
	// selJoin gathers a two-table equi-join's combined rows, then shapes them.
	selJoin
	// selStat filters a virtual stat table's rows, then shapes them.
	selStat
)

// planTable is one table as the planner sees it.
type planTable struct {
	name    string
	schema  *rel.Schema
	indexes []IndexMeta
}

// selectPlan is every decision one SELECT execution makes. It lives on
// the caller's stack; what it points into is the statement's own memory,
// the Scratch, or the plan cache's read-only entries.
type selectPlan struct {
	s         SelectStmt
	kind      selectKind
	aggregate bool
	// from is the scanned table: the single table, or a join's driving side.
	from planTable
	// scan is from's access path.
	scan plan
	// sorted reports that the scan delivers ORDER BY order (no sort runs);
	// early is the LIMIT the scan stops at (0: none).
	sorted bool
	early  int
	// proj is a streaming plan's output; every other kind has ss and outCols.
	proj    *projection
	ss      srcSchema
	outCols []outCol
	// strips and specs are the in-scan fold's filter and aggregates.
	strips []rel.ColPred
	specs  []rel.AggSpec
	join   *joinPlan
	// statRows are a stat table's materialized rows.
	statRows []rel.Row
}

// planSelect plans s. hint, when non-nil, supplies and caches the table
// metadata, the access path, the projection and the join strategy.
func planSelect(cat Catalog, s SelectStmt, hint *CachedStmt, sc *Scratch) (sp selectPlan, err error) {
	sp.s = s
	sp.aggregate = len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	if s.Join != nil {
		return sp, sp.planJoin(cat, hint)
	}
	sp.kind = selGather
	if schema, rows, ok := statTable(cat, s.Table); ok {
		sp.kind, sp.statRows = selStat, rows
		sp.from = planTable{name: s.Table, schema: schema}
	} else if sp.from, err = stmtTable(cat, hint, s.Table); err != nil {
		return sp, err
	}
	if err := checkWhereQualifiers(s.Table, s.Where); err != nil {
		return sp, err
	}
	if sp.scan, err = planFor(hint, sp.from.schema, sp.from.indexes, s.Table, s.Where, sc); err != nil {
		return sp, err
	}
	if sp.kind == selGather && !sp.aggregate && len(s.OrderBy) == 0 {
		sp.kind, sp.early = selStream, s.Limit
		sp.proj, err = projectionFor(hint, sp.from.schema, s)
		return sp, err
	}
	return sp, sp.planShape(singleSource(s.Table, sp.from.schema), sc)
}

// planShape resolves the select list over ss and decides what the shaping
// pipeline can skip: the sort (index order), the gather's tail (LIMIT), or
// the whole gather (the in-scan fold).
func (sp *selectPlan) planShape(ss srcSchema, sc *Scratch) (err error) {
	sp.ss = ss
	if sp.outCols, err = buildOutCols(&sp.ss, sp.s); err != nil {
		return err
	}
	if sp.kind == selGather && !sp.aggregate && len(sp.s.OrderBy) > 0 {
		if sp.sorted, err = orderSatisfied(&sp.ss, sp.from.indexes, sp.scan, sp.s.OrderBy); err != nil {
			return err
		}
	}
	sp.planFold(sc)
	if !sp.aggregate && sp.s.Limit > 0 && (len(sp.s.OrderBy) == 0 || sp.sorted) {
		sp.early = sp.s.Limit
	}
	return nil
}

// planFold lowers an all-aggregate scalar SELECT over a full table scan to
// the engine's in-scan fold: predicates filter column strips into a
// selection vector and each aggregate folds directly over its minipage, so
// no qualifying row is materialized (§5.2). It applies when every output
// column is an aggregate and every filter column is fixed-width.
func (sp *selectPlan) planFold(sc *Scratch) {
	s := &sp.s
	if sp.kind != selGather || !sp.aggregate || len(s.GroupBy) > 0 || len(s.OrderBy) > 0 ||
		sp.scan.index != "" || sp.scan.empty {
		return
	}
	for _, oc := range sp.outCols {
		if oc.agg == AggNone {
			return
		}
	}
	strips, rest := sp.scan.splitResidual(sp.from.schema, sc)
	if len(rest) > 0 {
		return
	}
	// COUNT (star or column — the dialect has no NULLs, so they agree)
	// reads the shared row count; AVG folds a SUM and divides by it.
	var specs []rel.AggSpec
	for i := range sp.outCols {
		oc := &sp.outCols[i]
		var op rel.AggOp
		switch oc.agg {
		case AggCount:
			oc.spec = -1
			continue
		case AggSum, AggAvg:
			op = rel.AggOpSum
		case AggMin:
			op = rel.AggOpMin
		case AggMax:
			op = rel.AggOpMax
		}
		oc.spec = len(specs)
		specs = append(specs, rel.AggSpec{Op: op, Col: oc.pos})
	}
	sp.kind, sp.strips, sp.specs = selFold, strips, specs
	s.Limit = 0 // no LIMIT cuts the fold's one row
}

// execSelect plans s and runs the plan.
func execSelect(cat Catalog, tx Txn, s SelectStmt, hint *CachedStmt, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	sp, err := planSelect(cat, s, hint, sc)
	if err != nil {
		return 0, err
	}
	return sp.run(cat, tx, tr, sc, sink)
}

// run executes the plan. tr, when non-nil, collects per-operator actuals
// for EXPLAIN ANALYZE; it never changes what runs.
func (sp *selectPlan) run(cat Catalog, tx Txn, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	switch sp.kind {
	case selStream:
		return sp.stream(tx, tr, sc, sink)
	case selFold:
		return sp.fold(tx, tr, sc, sink)
	}
	c := countersOf(cat)
	var rows []rel.Row
	var err error
	switch sp.kind {
	case selStat:
		rows = sp.filterStat(tr)
	case selJoin:
		rows, err = sp.gatherJoin(tx, tr, sc)
		c.JoinRows.Add(int64(len(rows)))
	default:
		if sp.sorted {
			c.SortAvoided.Add(1)
		}
		rows, err = sp.gather(tx, tr, sc)
	}
	if err != nil {
		return 0, err
	}
	return sp.shapeRows(rows, c, tr, sink)
}

// stream runs a plain projection: each matching row is projected into the
// Scratch's row and handed to the sink, until LIMIT.
func (sp *selectPlan) stream(tx Txn, tr *execTrace, sc *Scratch, sink RowSink) (int, error) {
	notePlan(tx, sp.from.name, sp.scan)
	sink.Header(sp.proj.cols)
	sc.bindCallbacks()
	sc.emit = emitState{sink: sink, proj: sp.proj.pos, limit: sp.early}
	err := scanMatching(tx, sp.from.schema, sp.from.name, sp.scan, tr.op(opScan), sc, sc.emitFn)
	n := sc.emit.n
	// Let go of the sink and of what the projected values reference (a
	// string value pins its page's bytes or a whole decoded cold block).
	sc.emit = emitState{}
	clear(sc.row[:cap(sc.row)])
	// LIMIT and the projection run inside the scan's callback, whose time
	// the scan carries: they count rows only.
	if sp.s.Limit > 0 {
		tr.op(opLimit).count(int64(n), int64(n))
	}
	tr.op(opProject).count(int64(n), int64(n))
	return n, err
}

// gather clones one table's matching rows, stopping at the early LIMIT.
func (sp *selectPlan) gather(tx Txn, tr *execTrace, sc *Scratch) ([]rel.Row, error) {
	notePlan(tx, sp.from.name, sp.scan)
	early := sp.early
	var rows []rel.Row
	err := scanMatching(tx, sp.from.schema, sp.from.name, sp.scan, tr.op(opScan), sc, func(_ rel.RowID, row rel.Row) bool {
		rows = append(rows, row.Clone()) // the scan only lends us the row
		return early == 0 || len(rows) < early
	})
	return rows, err
}

// filterStat filters a stat table's materialized rows: its WHERE is pure
// residual filtering.
func (sp *selectPlan) filterStat(tr *execTrace) []rel.Row {
	op := tr.op(opScan)
	start := op.begin()
	var matched []rel.Row
	examined := 0
	for _, row := range sp.statRows {
		if sp.early > 0 && len(matched) == sp.early {
			break
		}
		examined++
		if matches(sp.from.schema, row, sp.scan.residual) {
			matched = append(matched, row)
		}
	}
	op.rows(int64(examined), int64(len(matched)))
	op.end(start)
	return matched
}

// selectHint caches a join's strategy for a prepared statement: which
// side drives and which index the other side is probed through. It is
// literal-independent, and DDL invalidation drops the whole cache entry,
// so a stored hint never outlives the schema it was computed against.
type selectHint struct {
	swapped    bool   // drive over the JOIN table, probe the FROM table
	probeIndex string // "" = hash join (no usable index on either side)
}

// indexOnCol returns an index whose first column is pos (so an equality
// probe on that column is an index prefix scan), preferring unique ones.
func indexOnCol(indexes []IndexMeta, pos int) string {
	name := ""
	for _, ix := range indexes {
		if len(ix.Cols) > 0 && ix.Cols[0] == pos {
			if ix.Unique {
				return ix.Name
			}
			if name == "" {
				name = ix.Name
			}
		}
	}
	return name
}

// joinSide is one table of a two-table equi-join.
type joinSide struct {
	planTable
	col   int    // the join column's schema position
	conds []Cond // this side's WHERE conjuncts, qualifiers stripped
}

// joinPlan is a planned join. The driving side is scanned through
// selectPlan.scan; the other side is probed through probeIndex per driving
// row (index nested loop) or scanned once into a hash table (hash join).
type joinPlan struct {
	selectHint
	drive, other joinSide
	// Index nested loop: other's WHERE, normalized like planWhere's;
	// probeEmpty marks it contradictory, so nothing runs at all.
	probeConds []Cond
	probeEmpty bool
	// Hash join: other's access path for the build scan.
	build plan
}

// resolveJoin validates and resolves s's two-table join: the combined
// source schema, the equi-join columns, and WHERE partitioned by side.
func resolveJoin(cat Catalog, s SelectStmt) (ss srcSchema, outer, inner joinSide, err error) {
	for _, t := range []string{s.Table, s.Join.Table} {
		if _, _, ok := statTable(cat, t); ok {
			return ss, outer, inner, fmt.Errorf("sql: stat table %q cannot be joined", t)
		}
	}
	if s.Join.Table == s.Table {
		return ss, outer, inner, fmt.Errorf("%w: self-join of %q", ErrUnsupported, s.Table)
	}
	if outer.planTable, err = stmtTable(cat, nil, s.Table); err != nil {
		return ss, outer, inner, err
	}
	if inner.planTable, err = stmtTable(cat, nil, s.Join.Table); err != nil {
		return ss, outer, inner, err
	}
	ss = joinSource(s.Table, outer.schema, s.Join.Table, inner.schema)

	// Resolve the equi-join condition: one side per table, either order.
	lpos, err := ss.resolve(s.Join.Left)
	if err != nil {
		return ss, outer, inner, err
	}
	rpos, err := ss.resolve(s.Join.Right)
	if err != nil {
		return ss, outer, inner, err
	}
	outer.col, inner.col = lpos, rpos
	if lpos >= ss.offsets[1] {
		outer.col, inner.col = rpos, lpos
	}
	if outer.col >= ss.offsets[1] || inner.col < ss.offsets[1] {
		return ss, outer, inner, fmt.Errorf("sql: join condition must reference both tables")
	}
	inner.col -= ss.offsets[1]
	if outer.schema.Cols[outer.col].Type != inner.schema.Cols[inner.col].Type {
		return ss, outer, inner, fmt.Errorf("sql: join columns have different types")
	}

	// Partition WHERE by side, stripping qualifiers: each side's planner
	// resolves bare column names against its own schema.
	for _, cd := range s.Where {
		pos, err := ss.resolve(ColRef{Table: cd.Table, Col: cd.Col})
		if err != nil {
			return ss, outer, inner, err
		}
		side := &outer
		if pos >= ss.offsets[1] {
			side = &inner
		}
		side.conds = append(side.conds, Cond{Col: cd.Col, Op: cd.Op, Val: cd.Val})
	}
	return ss, outer, inner, nil
}

// chooseJoinStrategy picks (and caches on hint) the join strategy: index
// nested loop through whichever side has an index on its join column
// (preferring the JOIN-clause table), else hash join.
func chooseJoinStrategy(hint *CachedStmt, outer, inner *joinSide) selectHint {
	var sh *selectHint
	if hint != nil {
		sh = hint.sel.Load()
	}
	if sh == nil {
		sh = &selectHint{}
		if ixn := indexOnCol(inner.indexes, inner.col); ixn != "" {
			sh.probeIndex = ixn
		} else if ixn := indexOnCol(outer.indexes, outer.col); ixn != "" {
			sh.probeIndex, sh.swapped = ixn, true
		}
		if hint != nil {
			hint.sel.Store(sh)
		}
	}
	return *sh
}

// planJoin plans a two-table inner equi-join: the strategy, the driving
// side's access path, and the other side's probe conditions or build path.
func (sp *selectPlan) planJoin(cat Catalog, hint *CachedStmt) error {
	ss, outer, inner, err := resolveJoin(cat, sp.s)
	if err != nil {
		return err
	}
	jp := &joinPlan{selectHint: chooseJoinStrategy(hint, &outer, &inner), drive: outer, other: inner}
	if jp.swapped {
		jp.drive, jp.other = inner, outer
	}
	sp.kind, sp.join, sp.from = selJoin, jp, jp.drive.planTable
	if sp.scan, err = planWhere(jp.drive.schema, jp.drive.indexes, jp.drive.conds); err != nil {
		return err
	}
	if jp.probeIndex != "" {
		// The probe side bypasses planWhere, so apply the same dedupe (last
		// condition wins), range intersection, and int→float coercion here;
		// matches() compares raw values and must see normalized conditions.
		prw, err := resolveWhere(jp.other.schema, jp.other.conds)
		if err != nil {
			return err
		}
		jp.probeEmpty, jp.probeConds = prw.empty, prw.flatten(jp.other.schema)
	} else if jp.build, err = planWhere(jp.other.schema, jp.other.indexes, jp.other.conds); err != nil {
		return err
	}
	return sp.planShape(ss, nil)
}

// gatherJoin runs the planned join into combined (outer ++ inner) rows.
func (sp *selectPlan) gatherJoin(tx Txn, tr *execTrace, sc *Scratch) ([]rel.Row, error) {
	jp := sp.join
	noteLabel(tx, joinLabel(jp.selectHint, scanLabel(jp.drive.name, sp.scan), jp.other.name))
	width, split, early, swapped := sp.ss.width, sp.ss.offsets[1], sp.early, jp.swapped
	var rows []rel.Row
	emit := func(drow, orow rel.Row) bool {
		if swapped {
			drow, orow = orow, drow
		}
		out := make(rel.Row, width)
		copy(out, drow)
		copy(out[split:], orow)
		rows = append(rows, out)
		return early == 0 || len(rows) < early
	}
	var err error
	if jp.probeIndex != "" {
		err = jp.indexNestedLoop(tx, sp.scan, tr, sc, emit)
	} else {
		err = jp.hashJoin(tx, sp.scan, tr, sc, emit)
	}
	return rows, err
}

// indexNestedLoop scans the driving side through drive, probing the other
// side's index with each driving row's join value.
func (jp *joinPlan) indexNestedLoop(tx Txn, drive plan, tr *execTrace, sc *Scratch, emit func(drow, orow rel.Row) bool) error {
	if jp.probeEmpty {
		return nil
	}
	other, probeConds, probeIndex, driveCol := jp.other, jp.probeConds, jp.probeIndex, jp.drive.col
	pop := tr.op(opProbe)
	var perr error
	err := scanMatching(tx, jp.drive.schema, jp.drive.name, drive, tr.op(opScan), sc, func(_ rel.RowID, drow rel.Row) bool {
		more := true
		pstart := pop.begin()
		perr = tx.ScanIndex(other.name, probeIndex, []rel.Value{drow[driveCol]}, func(_ rel.RowID, orow rel.Row) bool {
			pop.rows(1, 0)
			if !matches(other.schema, orow, probeConds) {
				return true
			}
			pop.rows(0, 1)
			more = emit(drow, orow)
			return more
		})
		pop.end(pstart)
		return perr == nil && more
	})
	if tr != nil {
		// The probe runs inside the drive scan's callback; keep each
		// wall-second charged to exactly one operator.
		tr[opScan].nanos = max(tr[opScan].nanos-tr[opProbe].nanos, 0)
	}
	if err == nil {
		err = perr
	}
	return err
}

// hashJoin builds a hash table over the other side's matching rows, then
// probes it while scanning the driving side through drive.
func (jp *joinPlan) hashJoin(tx Txn, drive plan, tr *execTrace, sc *Scratch, emit func(drow, orow rel.Row) bool) error {
	buildCol, driveCol := jp.other.col, jp.drive.col
	build := make(map[string][]rel.Row)
	err := scanMatching(tx, jp.other.schema, jp.other.name, jp.build, tr.op(opBuild), sc, func(_ rel.RowID, row rel.Row) bool {
		key := string(rel.EncodeKey(nil, row[buildCol]))
		build[key] = append(build[key], row.Clone())
		return true
	})
	if err != nil {
		return err
	}
	pop := tr.op(opProbe)
	pstart := pop.begin()
	var probeKey []byte
	err = scanMatching(tx, jp.drive.schema, jp.drive.name, drive, tr.op(opScan), sc, func(_ rel.RowID, drow rel.Row) bool {
		probeKey = rel.EncodeKey(probeKey[:0], drow[driveCol])
		matched := build[string(probeKey)]
		pop.rows(1, int64(len(matched)))
		for _, orow := range matched {
			if !emit(drow, orow) {
				return false
			}
		}
		return true
	})
	pop.end(pstart)
	if tr != nil {
		// The outer scan runs inside the probe's bracket.
		tr[opProbe].nanos = max(tr[opProbe].nanos-tr[opScan].nanos, 0)
	}
	return err
}
