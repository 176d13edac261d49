package sql

import (
	"fmt"
	"slices"
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
// A plan produces rows from one source — a table's access path, a
// two-table join, or a stat table — in one of five ways (selectKind): a
// plain projection streams each source row into the sink; an all-aggregate
// scalar select list folds, inside the engine's scan over a strip-filtered
// full scan (§5.2) or row by row in the source's callback on any other
// path; every other shape gathers its matching rows, copying only the
// columns the later stages read, since the source only lends its row, and
// shapes them:
//
//	gather (scan / join)  →  aggregate  →  sort  →  limit  →  project
//
// LIMIT stops the source early whenever output order is source order, and
// an ORDER BY whose keys the chosen index scan already delivers skips the
// sort (counted in Counters.SortAvoided).

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
	pos  int  // source-row position (aggregate argument, or plain output)
	at   int  // the same column's position in a gathered row
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
// gathered rows, which it owns.
func (sp *selectPlan) shapeRows(rows []rel.Row, c *Counters, tr *execTrace, sink RowSink) int {
	if sp.aggregate {
		rows = sp.aggregateRows(rows, tr)
	}
	return sp.finish(rows, c, tr, sink)
}

// finish sorts (in place), limits and projects shaped rows.
func (sp *selectPlan) finish(rows []rel.Row, c *Counters, tr *execTrace, sink RowSink) int {
	s := &sp.s
	if keys := sp.orderAt; len(keys) > 0 {
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
	return sp.project(rows, tr, sink)
}

// project hands the shaped rows to the sink, picking each output column
// out of its gathered row; an aggregate's rows already are output rows.
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
				out[j] = row[oc.at]
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

// final renders output column oc's aggregate from its state.
func (sp *selectPlan) final(oc outCol, st *aggState) rel.Value {
	if oc.star {
		return st.final(oc.agg, rel.TInt64)
	}
	return st.final(oc.agg, sp.ss.colMeta(oc.pos).Type)
}

// aggregateRows hash-aggregates the gathered rows by the GROUP BY keys (or
// into a single scalar group), in encoded group-key order — deterministic.
// Each result row is the output columns followed by the group's key
// values, which is where planGather pointed the ORDER BY positions.
func (sp *selectPlan) aggregateRows(rows []rel.Row, tr *execTrace) []rel.Row {
	outCols, groupAt := sp.outCols, sp.groupAt
	width := len(outCols)
	type group struct {
		row    rel.Row // output columns, then the grouping values
		states []aggState
	}
	newGroup := func() *group {
		return &group{row: make(rel.Row, width+len(groupAt)), states: make([]aggState, width)}
	}
	aop := tr.op(opAgg)
	astart := aop.begin()
	groups := make(map[string]*group)
	keyBuf := make([]rel.Value, len(groupAt))
	var keyBytes []byte
	for _, row := range rows {
		for i, gp := range groupAt {
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
				v = row[oc.at]
			}
			g.states[i].add(oc.agg, v)
		}
	}
	if len(groupAt) == 0 && len(groups) == 0 {
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
			if oc.agg == AggNone {
				g.row[j] = g.row[width+slices.Index(groupAt, oc.at)]
			} else {
				g.row[j] = sp.final(oc, &g.states[j])
			}
		}
		out[i] = g.row
	}
	aop.rows(int64(len(rows)), int64(len(out)))
	aop.end(astart)
	return out
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

// foldRows folds a scalar aggregate row by row as the source yields it,
// then emits its one row. The fold runs inside the source's callback,
// whose time the source carries: the aggregate counts rows only.
func (sp *selectPlan) foldRows(tx Txn, tr *execTrace, sc *Scratch, c *Counters, sink RowSink) (int, error) {
	outCols := sp.outCols
	states := make([]aggState, len(outCols))
	var n int64
	err := sp.produce(tx, tr, sc, c, func(_ rel.RowID, row rel.Row) bool {
		n++
		for i, oc := range outCols {
			var v rel.Value
			if !oc.star {
				v = row[oc.pos]
			}
			states[i].add(oc.agg, v)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	row := sc.rowBuf(len(outCols))
	for i, oc := range outCols {
		row[i] = sp.final(oc, &states[i])
	}
	tr.op(opAgg).count(n, 1)
	out := sp.finish([]rel.Row{row}, c, tr, sink)
	clear(row) // a MIN or MAX string pins its page's bytes
	return out, nil
}

// orderSatisfied reports whether the planned index scan already emits
// rows in ORDER BY order: every key ascending, and the key columns
// matching the index columns after the equality prefix, in sequence.
// Columns pinned by the equality prefix are constant within the scan and
// satisfy a key anywhere.
func orderSatisfied(ss *srcSchema, indexes []IndexMeta, p plan, keys []OrderKey) (bool, error) {
	ix := indexNamed(indexes, p.index)
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
		if slices.Contains(ix.Cols[:prefix], pos) {
			continue // pinned
		}
		if next < len(ix.Cols) && ix.Cols[next] == pos {
			next++
			continue
		}
		return false, nil
	}
	return true, nil
}

// indexNamed returns the named index's metadata, or nil.
func indexNamed(indexes []IndexMeta, name string) *IndexMeta {
	for i := range indexes {
		if indexes[i].Name == name {
			return &indexes[i]
		}
	}
	return nil
}

// selectKind is how a planned SELECT consumes its source's rows.
type selectKind uint8

const (
	// selStream projects each source row straight into the sink.
	selStream selectKind = iota
	// selFold folds an all-aggregate select list inside the engine's scan.
	selFold
	// selRowFold folds an all-aggregate select list in the source's
	// callback, where the engine's fold does not apply.
	selRowFold
	// selGather copies the source rows' kept columns, then shapes them.
	selGather
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
	// early is the LIMIT the source stops at (0: none).
	sorted bool
	early  int
	// proj is a one-table stream's output; every other plan has ss and
	// outCols.
	proj    *projection
	ss      srcSchema
	outCols []outCol
	// keep lists the source positions a gathered row copies (nil: a stat
	// table's rows, which are shaped as they are); orderAt and groupAt are
	// the ORDER BY and GROUP BY positions in the rows the sort and the
	// aggregate see.
	keep    []int
	orderAt []int
	groupAt []int
	// strips and specs are the in-scan fold's filter and aggregates.
	strips []rel.ColPred
	specs  []rel.AggSpec
	// join, when non-nil, makes the source a join driven through scan.
	join *joinPlan
	// statRows are a stat table's materialized rows.
	statRows []rel.Row
}

// planSelect plans s. hint, when non-nil, supplies and caches the table
// metadata, the access path, the projection and the join strategy.
func planSelect(cat Catalog, s SelectStmt, hint *CachedStmt, sc *Scratch) (sp selectPlan, err error) {
	sp.s = s
	sp.aggregate = len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	sp.kind = selGather
	if s.Join != nil {
		return sp, sp.planJoin(cat, hint)
	}
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

// planShape resolves the select list over ss and decides how the source's
// rows are consumed: streamed (a join with nothing to shape), folded, or
// gathered — and then what the shaping pipeline can skip: the sort (index
// order) or the gather's tail (LIMIT).
func (sp *selectPlan) planShape(ss srcSchema, sc *Scratch) (err error) {
	sp.ss = ss
	if sp.outCols, err = buildOutCols(&sp.ss, sp.s); err != nil {
		return err
	}
	if sp.join != nil && !sp.aggregate && len(sp.s.OrderBy) == 0 {
		sp.kind, sp.early = selStream, sp.s.Limit
		sp.proj = &projection{cols: colNames(sp.outCols), pos: make([]int, len(sp.outCols))}
		for i, oc := range sp.outCols {
			sp.proj.pos[i] = oc.pos
		}
		return nil
	}
	if sp.kind == selGather && sp.join == nil && !sp.aggregate && len(sp.s.OrderBy) > 0 {
		if sp.sorted, err = orderSatisfied(&sp.ss, sp.from.indexes, sp.scan, sp.s.OrderBy); err != nil {
			return err
		}
	}
	if sp.planFold(sc) {
		return nil
	}
	if !sp.aggregate && sp.s.Limit > 0 && (len(sp.s.OrderBy) == 0 || sp.sorted) {
		sp.early = sp.s.Limit
	}
	return sp.planGather()
}

// planFold makes an all-aggregate scalar SELECT fold instead of gather,
// and reports whether it did. Over a full table scan whose every filter
// column is fixed-width it lowers to the engine's in-scan fold: predicates
// filter column strips into a selection vector and each aggregate folds
// directly over its minipage, so no qualifying row is materialized (§5.2).
// On any other source it folds each row in the source's callback.
func (sp *selectPlan) planFold(sc *Scratch) bool {
	s := &sp.s
	if sp.kind != selGather || !sp.aggregate || len(s.GroupBy) > 0 || len(s.OrderBy) > 0 {
		return false
	}
	for _, oc := range sp.outCols {
		if oc.agg == AggNone {
			return false
		}
	}
	sp.kind = selRowFold
	if sp.join != nil || sp.scan.index != "" || sp.scan.empty {
		return true
	}
	strips, rest := sp.scan.splitResidual(sp.from.schema, sc)
	if len(rest) > 0 {
		return true
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
	return true
}

// planGather resolves the ORDER BY and GROUP BY of a gathered (or stat)
// source and decides what a gathered row keeps: only the columns the
// output, the sort, the grouping and the aggregate arguments read. Every
// reader's position is then remapped into that row.
func (sp *selectPlan) planGather() error {
	s, ss := &sp.s, &sp.ss
	var order []int
	if len(s.OrderBy) > 0 && !sp.sorted {
		order = make([]int, len(s.OrderBy))
		for i, k := range s.OrderBy {
			p, err := ss.resolve(k.Ref)
			if err != nil {
				return err
			}
			order[i] = p
		}
	}
	group := make([]int, len(s.GroupBy))
	for i, ref := range s.GroupBy {
		p, err := ss.resolve(ref)
		if err != nil {
			return err
		}
		group[i] = p
	}
	if sp.aggregate {
		// Every plain output column and ORDER BY key must be one of the
		// grouping columns.
		for _, oc := range sp.outCols {
			if oc.agg == AggNone && !slices.Contains(group, oc.pos) {
				return fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", oc.name)
			}
		}
		for i, p := range order {
			if !slices.Contains(group, p) {
				return fmt.Errorf("sql: ORDER BY column %q must appear in GROUP BY", s.OrderBy[i].Ref.Col)
			}
		}
	}
	if sp.kind == selGather {
		keep := make([]int, 0, len(sp.outCols)+len(order)+len(group))
		for _, oc := range sp.outCols {
			if !oc.star {
				keep = append(keep, oc.pos)
			}
		}
		keep = append(append(keep, order...), group...)
		slices.Sort(keep)
		sp.keep = slices.Compact(keep)
	}
	for i := range sp.outCols {
		sp.outCols[i].at = sp.gatheredAt(sp.outCols[i].pos)
	}
	for i, p := range group {
		group[i] = sp.gatheredAt(p)
	}
	sp.groupAt = group
	for i, p := range order {
		order[i] = sp.gatheredAt(p)
		if sp.aggregate {
			// An aggregate's rows are its output columns, then the
			// group's keys.
			order[i] = len(sp.outCols) + slices.Index(group, order[i])
		}
	}
	sp.orderAt = order
	return nil
}

// gatheredAt maps a source position to its position in a gathered row.
func (sp *selectPlan) gatheredAt(pos int) int {
	if sp.keep == nil {
		return pos
	}
	i, _ := slices.BinarySearch(sp.keep, pos)
	return i
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
	c := countersOf(cat)
	switch sp.kind {
	case selStream:
		return sp.stream(tx, tr, sc, c, sink)
	case selFold:
		return sp.fold(tx, tr, sc, sink)
	case selRowFold:
		return sp.foldRows(tx, tr, sc, c, sink)
	case selStat:
		return sp.shapeRows(sp.filterStat(tr), c, tr, sink), nil
	}
	if sp.sorted {
		c.SortAvoided.Add(1)
	}
	rows, err := sp.gather(tx, tr, sc, c)
	n := 0
	if err == nil {
		n = sp.shapeRows(rows, c, tr, sink)
	}
	sc.releaseGathered()
	return n, err
}

// stream runs a plain projection: each source row is projected into the
// Scratch's row and handed to the sink, until LIMIT.
func (sp *selectPlan) stream(tx Txn, tr *execTrace, sc *Scratch, c *Counters, sink RowSink) (int, error) {
	sink.Header(sp.proj.cols)
	sc.bindCallbacks()
	sc.emit = emitState{sink: sink, proj: sp.proj.pos, limit: sp.early}
	err := sp.produce(tx, tr, sc, c, sc.emitFn)
	n := sc.emit.n
	// Let go of the sink and of what the projected values reference (a
	// string value pins its page's bytes or a whole decoded cold block).
	sc.emit = emitState{}
	clear(sc.row[:cap(sc.row)])
	// LIMIT and the projection run inside the source's callback, whose
	// time the source carries: they count rows only.
	if sp.s.Limit > 0 {
		tr.op(opLimit).count(int64(n), int64(n))
	}
	tr.op(opProject).count(int64(n), int64(n))
	return n, err
}

// gather copies the kept columns of the source's rows (the source only
// lends its row) into the Scratch, stopping at the early LIMIT. The rows
// are the statement's until releaseGathered.
func (sp *selectPlan) gather(tx Txn, tr *execTrace, sc *Scratch, c *Counters) ([]rel.Row, error) {
	keep, early := sp.keep, sp.early
	rows, vals := sc.gathered[:0], sc.gatheredVals[:0]
	err := sp.produce(tx, tr, sc, c, func(_ rel.RowID, row rel.Row) bool {
		start := len(vals)
		for _, p := range keep {
			vals = append(vals, row[p])
		}
		rows = append(rows, vals[start:len(vals):len(vals)])
		return early == 0 || len(rows) < early
	})
	sc.gathered, sc.gatheredVals = rows, vals
	return rows, err
}

// produce runs the plan's source, one table's access path or the join,
// handing each matching row to fn until fn returns false.
func (sp *selectPlan) produce(tx Txn, tr *execTrace, sc *Scratch, c *Counters, fn func(rel.RowID, rel.Row) bool) error {
	if sp.join != nil {
		return sp.runJoin(tx, tr, sc, c, fn)
	}
	notePlan(tx, sp.from.name, sp.scan)
	return scanMatching(tx, sp.from.schema, sp.from.name, sp.scan, tr.op(opScan), sc, fn)
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
// literal-independent — whether a column is bound by = is part of the
// statement's shape — and DDL invalidation drops the whole cache entry,
// so a stored hint never outlives the schema it was computed against.
type selectHint struct {
	swapped    bool   // drive over the JOIN table, probe the FROM table
	probeIndex string // "" = hash join (no usable index on either side)
	// probePrefix is how many leading probeIndex columns the probed side's
	// WHERE binds by =; the join column is the next one.
	probePrefix int
}

// joinSide is one table of a two-table equi-join.
type joinSide struct {
	planTable
	col   int    // the join column's schema position
	conds []Cond // this side's WHERE conjuncts, qualifiers stripped
}

// eqBound reports whether the side's WHERE binds column pos by =.
func (js *joinSide) eqBound(pos int) bool {
	for _, c := range js.conds {
		if c.Op == rel.CmpEq && js.schema.ColIndex(c.Col) == pos {
			return true
		}
	}
	return false
}

// probeIndex returns an index through which a join can probe the side,
// and its bound prefix: the index's leading columns must all be bound by
// = in the side's WHERE, and its next column must be the join column.
// A longer bound prefix wins, then a unique index, then the first
// declared. "" when no index qualifies.
func (js *joinSide) probeIndex() (name string, prefix int) {
	best := -1
	for _, ix := range js.indexes {
		k := 0
		for k < len(ix.Cols) && ix.Cols[k] != js.col && js.eqBound(ix.Cols[k]) {
			k++
		}
		if k == len(ix.Cols) || ix.Cols[k] != js.col {
			continue
		}
		score := 2 * k
		if ix.Unique {
			score++
		}
		if score > best {
			name, prefix, best = ix.Name, k, score
		}
	}
	return name, prefix
}

// joinPlan is a planned join. The driving side is scanned through
// selectPlan.scan; the other side is probed through probeIndex per driving
// row (index nested loop) or scanned once into a hash table (hash join).
type joinPlan struct {
	selectHint
	drive, other joinSide
	// Index nested loop: the probe key, whose bound prefix is filled in
	// and whose last value each driving row's join value overwrites, and
	// the rest of other's WHERE, normalized like planWhere's; probeEmpty
	// marks that WHERE contradictory, so nothing runs at all.
	probeKey   []rel.Value
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
	// resolves bare column names against its own schema. Both lists share
	// one array, the outer side's conditions first.
	conds := make([]Cond, 0, len(s.Where))
	for _, side := range []*joinSide{&outer, &inner} {
		start := len(conds)
		for _, cd := range s.Where {
			pos, err := ss.resolve(ColRef{Table: cd.Table, Col: cd.Col})
			if err != nil {
				return ss, outer, inner, err
			}
			if (pos >= ss.offsets[1]) == (side == &inner) {
				conds = append(conds, Cond{Col: cd.Col, Op: cd.Op, Val: cd.Val})
			}
		}
		if len(conds) > start {
			side.conds = conds[start:len(conds):len(conds)]
		}
	}
	return ss, outer, inner, nil
}

// chooseJoinStrategy picks (and caches on hint) the join strategy: index
// nested loop through whichever side has a probe index (preferring the
// JOIN-clause table), else hash join.
func chooseJoinStrategy(hint *CachedStmt, outer, inner *joinSide) selectHint {
	var sh *selectHint
	if hint != nil {
		sh = hint.sel.Load()
	}
	if sh == nil {
		sh = &selectHint{}
		if ixn, k := inner.probeIndex(); ixn != "" {
			sh.probeIndex, sh.probePrefix = ixn, k
		} else if ixn, k := outer.probeIndex(); ixn != "" {
			sh.probeIndex, sh.probePrefix, sh.swapped = ixn, k, true
		}
		if hint != nil {
			hint.sel.Store(sh)
		}
	}
	return *sh
}

// planJoin plans a two-table inner equi-join: the strategy, the driving
// side's access path, and the other side's probe key and conditions or
// build path.
func (sp *selectPlan) planJoin(cat Catalog, hint *CachedStmt) error {
	ss, outer, inner, err := resolveJoin(cat, sp.s)
	if err != nil {
		return err
	}
	jp := &joinPlan{selectHint: chooseJoinStrategy(hint, &outer, &inner), drive: outer, other: inner}
	if jp.swapped {
		jp.drive, jp.other = inner, outer
	}
	sp.join, sp.from = jp, jp.drive.planTable
	if sp.scan, err = planWhere(jp.drive.schema, jp.drive.indexes, jp.drive.conds); err != nil {
		return err
	}
	if jp.probeIndex != "" {
		// The probe side bypasses planWhere, so apply the same dedupe (last
		// condition wins), range intersection, and int→float coercion here;
		// the probe key and matches() must see normalized values.
		prw, err := resolveWhere(jp.other.schema, jp.other.conds)
		if err != nil {
			return err
		}
		if err := jp.bindProbeKey(&prw); err != nil {
			return err
		}
		jp.probeEmpty, jp.probeConds = prw.empty, prw.flatten(jp.other.schema)
	} else if jp.build, err = planWhere(jp.other.schema, jp.other.indexes, jp.other.conds); err != nil {
		return err
	}
	return sp.planShape(ss, nil)
}

// bindProbeKey fills the probe key's bound prefix from the probed side's
// = conditions and takes those conditions out of rw: the index enforces
// them.
func (jp *joinPlan) bindProbeKey(rw *resolvedWhere) error {
	ix := indexNamed(jp.other.indexes, jp.probeIndex)
	if ix == nil || jp.probePrefix >= len(ix.Cols) {
		return fmt.Errorf("sql: join probe index %q on %q changed", jp.probeIndex, jp.other.name)
	}
	jp.probeKey = make([]rel.Value, jp.probePrefix+1)
	for i, pos := range ix.Cols[:jp.probePrefix] {
		j := slices.IndexFunc(rw.conds, func(rc resolvedCond) bool { return rc.col == pos && rc.op == rel.CmpEq })
		if j < 0 {
			return fmt.Errorf("sql: join probe index %q: column %q is not bound by =", jp.probeIndex, jp.other.schema.Cols[pos].Name)
		}
		jp.probeKey[i] = rw.conds[j].val
		rw.conds = slices.Delete(rw.conds, j, j+1)
	}
	return nil
}

// runJoin runs the planned join, handing each combined (outer ++ inner)
// row to fn in one reused buffer, without a row id, and counts them in
// Counters.JoinRows.
func (sp *selectPlan) runJoin(tx Txn, tr *execTrace, sc *Scratch, c *Counters, fn func(rel.RowID, rel.Row) bool) error {
	jp := sp.join
	noteLabel(tx, joinLabel(jp.selectHint, scanLabel(jp.drive.name, sp.scan), jp.other.name))
	if cap(sc.comb) < sp.ss.width {
		sc.comb = make(rel.Row, sp.ss.width)
	}
	comb := sc.comb[:sp.ss.width]
	driveVals, otherVals := comb[:sp.ss.offsets[1]], comb[sp.ss.offsets[1]:]
	if jp.swapped {
		driveVals, otherVals = otherVals, driveVals
	}
	var n int64
	emit := func(drow, orow rel.Row) bool {
		copy(driveVals, drow)
		copy(otherVals, orow)
		n++
		return fn(0, comb)
	}
	var err error
	if jp.probeIndex != "" {
		err = jp.indexNestedLoop(tx, sp.scan, tr, sc, emit)
	} else {
		err = jp.hashJoin(tx, sp.scan, tr, sc, emit)
	}
	clear(comb) // its strings pin their pages' bytes
	c.JoinRows.Add(n)
	return err
}

// indexNestedLoop scans the driving side through drive, probing the other
// side's index with the bound prefix and each driving row's join value.
// The key and the probe's callback are made once per statement.
func (jp *joinPlan) indexNestedLoop(tx Txn, drive plan, tr *execTrace, sc *Scratch, emit func(drow, orow rel.Row) bool) error {
	if jp.probeEmpty {
		return nil
	}
	other, probeConds, probeIndex, driveCol := jp.other, jp.probeConds, jp.probeIndex, jp.drive.col
	key := jp.probeKey
	pop := tr.op(opProbe)
	var drow rel.Row
	more := true
	probe := func(_ rel.RowID, orow rel.Row) bool {
		pop.rows(1, 0)
		if !matches(other.schema, orow, probeConds) {
			return true
		}
		pop.rows(0, 1)
		more = emit(drow, orow)
		return more
	}
	var perr error
	err := scanMatching(tx, jp.drive.schema, jp.drive.name, drive, tr.op(opScan), sc, func(_ rel.RowID, row rel.Row) bool {
		drow = row
		key[len(key)-1] = row[driveCol]
		pstart := pop.begin()
		perr = tx.ScanIndex(other.name, probeIndex, key, probe)
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
