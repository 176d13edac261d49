package sql

import (
	"fmt"
	"strings"
	"time"

	"phoebedb/internal/rel"
)

// EXPLAIN and EXPLAIN ANALYZE.
//
// EXPLAIN renders the plan the executor would run — access path, join
// strategy, sort avoidance, LIMIT pushdown — by consulting the same
// planner entry points (planWhere, resolveJoin, chooseJoinStrategy,
// orderSatisfied) the executor itself uses, so the rendered tree cannot
// drift from execution. EXPLAIN ANALYZE additionally runs the statement
// with a trace collector threaded through every operator and annotates
// each node with its actuals: rows out, loop count, and wall time.
//
// The collector is designed so the untraced hot path pays nothing: every
// operator holds a *opTrace that is nil when tracing is off, and every
// opTrace method no-ops on a nil receiver — one predictable branch, no
// allocation, no time.Now.

// opTrace accumulates one operator's actuals.
type opTrace struct {
	rowsIn  int64
	rowsOut int64
	loops   int64
	nanos   int64
}

// begin starts one timed invocation; returns the zero time on nil.
func (op *opTrace) begin() time.Time {
	if op == nil {
		return time.Time{}
	}
	return time.Now()
}

// end finishes one timed invocation started by begin.
func (op *opTrace) end(start time.Time) {
	if op == nil {
		return
	}
	op.loops++
	op.nanos += time.Since(start).Nanoseconds()
}

// rows adds to the operator's row counters.
func (op *opTrace) rows(in, out int64) {
	if op == nil {
		return
	}
	op.rowsIn += in
	op.rowsOut += out
}

// execTrace is the per-statement collector: one slot per operator of the
// gather → join → aggregate → sort → limit → project pipeline (plus the
// DML apply step). Accessors return nil on a nil trace so operators can
// be handed a trace slot unconditionally.
type execTrace struct {
	scan    opTrace // driving scan (or stat-table / streaming scan)
	probe   opTrace // join probe side (index probes, or hash probe)
	build   opTrace // hash-join build-side scan
	agg     opTrace // grouping + aggregate fold
	sort    opTrace // ORDER BY sort
	limit   opTrace // LIMIT truncation
	project opTrace // output projection
	modify  opTrace // INSERT/UPDATE/DELETE apply loop

	total time.Duration // statement wall time (EXPLAIN ANALYZE)
}

func (tr *execTrace) scanOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.scan
}

func (tr *execTrace) probeOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.probe
}

func (tr *execTrace) buildOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.build
}

func (tr *execTrace) aggOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.agg
}

func (tr *execTrace) sortOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.sort
}

func (tr *execTrace) limitOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.limit
}

func (tr *execTrace) projectOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.project
}

func (tr *execTrace) modifyOp() *opTrace {
	if tr == nil {
		return nil
	}
	return &tr.modify
}

// PlanNoter is implemented by transaction handles that record plan
// provenance (for the slow log and per-statement attribution).
type PlanNoter interface {
	NotePlan(desc string)
}

// notePlan records the chosen plan's one-line provenance on transaction
// handles that care; a non-PlanNoter Txn costs one type assertion.
func noteLabel(tx Txn, desc string) {
	if pn, ok := tx.(PlanNoter); ok {
		pn.NotePlan(desc)
	}
}

// notePlan notes a planned scan's access path; a plan rebuilt from a cached
// hint carries its label, any other renders it here.
func notePlan(tx Txn, table string, p plan) {
	if pn, ok := tx.(PlanNoter); ok {
		label := p.label
		if label == "" {
			label = scanLabel(table, p)
		}
		pn.NotePlan(label)
	}
}

// scanLabel is the one-line access-path description of a planned scan.
func scanLabel(table string, p plan) string {
	switch {
	case p.empty:
		return "Empty Scan on " + table
	case p.index != "" && p.hasRange():
		return "Index Range Scan using " + p.index + " on " + table
	case p.index != "":
		return "Index Scan using " + p.index + " on " + table
	}
	return "Seq Scan on " + table
}

// joinLabel is the one-line join-strategy description for provenance:
// strategy, driving-side access path, and the probed/built side.
func joinLabel(sh *selectHint, driveLabel, otherTable string) string {
	if sh.probeIndex != "" {
		return fmt.Sprintf("IndexNestedLoop Join (%s; probe %s via %s)", driveLabel, otherTable, sh.probeIndex)
	}
	return fmt.Sprintf("Hash Join (%s; build %s)", driveLabel, otherTable)
}

// planNode is one rendered plan-tree node.
type planNode struct {
	label    string
	notes    []string
	op       *opTrace
	children []*planNode
}

// refString renders a column reference as written.
func refString(r ColRef) string {
	if r.Table != "" {
		return r.Table + "." + r.Col
	}
	return r.Col
}

// condsString renders conditions "col op val AND ...".
func condsString(conds []Cond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		col := c.Col
		if c.Table != "" {
			col = c.Table + "." + c.Col
		}
		parts[i] = col + " " + c.Op.String() + " " + c.Val.String()
	}
	return strings.Join(parts, " AND ")
}

// rangeCondString renders a plan's index range bounds with their
// inclusivity, e.g. "amt >= 10 AND amt < 20".
func rangeCondString(p plan) string {
	var parts []string
	if p.hasLo {
		op := ">"
		if p.loIncl {
			op = ">="
		}
		parts = append(parts, p.rangeCol+" "+op+" "+p.lo.String())
	}
	if p.hasHi {
		op := "<"
		if p.hiIncl {
			op = "<="
		}
		parts = append(parts, p.rangeCol+" "+op+" "+p.hi.String())
	}
	return strings.Join(parts, " AND ")
}

// scanPlanNode builds the plan node for a planned table access: the
// access path plus Index Cond / Index Range Cond / Filter annotations.
// A full scan whose whole residual runs batch-at-a-time over column strips
// is marked "Vectorized: true" — the split scanMatching applies.
func scanPlanNode(table string, schema *rel.Schema, indexes []IndexMeta, p plan, op *opTrace) *planNode {
	n := &planNode{label: scanLabel(table, p), op: op}
	if p.empty {
		n.notes = append(n.notes, "One-Time Filter: false (contradictory WHERE)")
		return n
	}
	if p.index != "" && len(p.prefixVals) > 0 {
		for i := range indexes {
			if indexes[i].Name != p.index {
				continue
			}
			conds := make([]string, len(p.prefixVals))
			for j, v := range p.prefixVals {
				conds[j] = schema.Cols[indexes[i].Cols[j]].Name + " = " + v.String()
			}
			n.notes = append(n.notes, "Index Cond: "+strings.Join(conds, " AND "))
			break
		}
	}
	if p.index != "" && p.hasRange() {
		n.notes = append(n.notes, "Index Range Cond: "+rangeCondString(p))
	}
	if len(p.residual) > 0 {
		n.notes = append(n.notes, "Filter: "+condsString(p.residual))
	}
	if p.index == "" {
		if _, rest := p.splitResidual(schema, new(Scratch)); len(rest) == 0 {
			n.notes = append(n.notes, "Vectorized: true")
		}
	}
	return n
}

// shapePlanNodes wraps the gather node in the shaping pipeline the
// executor applies: aggregate → sort → limit → project, innermost first.
func shapePlanNodes(ss *srcSchema, s SelectStmt, child *planNode, sorted bool, tr *execTrace) (*planNode, error) {
	outCols, err := buildOutCols(ss, s)
	if err != nil {
		return nil, err
	}
	n := child
	aggregate := len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	if aggregate {
		label := "Aggregate"
		if len(s.GroupBy) > 0 {
			keys := make([]string, len(s.GroupBy))
			for i, r := range s.GroupBy {
				keys[i] = refString(r)
			}
			label = "HashAggregate (group by " + strings.Join(keys, ", ") + ")"
		}
		n = &planNode{label: label, op: tr.aggOp(), children: []*planNode{n}}
	}
	if len(s.OrderBy) > 0 && (aggregate || !sorted) {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = refString(k.Ref)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		n = &planNode{label: "Sort (" + strings.Join(keys, ", ") + ")", op: tr.sortOp(), children: []*planNode{n}}
	}
	if s.Limit > 0 {
		n = &planNode{label: fmt.Sprintf("Limit %d", s.Limit), op: tr.limitOp(), children: []*planNode{n}}
	}
	n = &planNode{label: "Project (" + strings.Join(colNames(outCols), ", ") + ")", op: tr.projectOp(), children: []*planNode{n}}
	return n, nil
}

// buildSelectPlan reconstructs the plan tree for a SELECT by invoking
// the same planner decisions the executor makes.
func buildSelectPlan(cat Catalog, s SelectStmt, tr *execTrace) (*planNode, error) {
	if s.Join != nil {
		return buildJoinPlan(cat, s, tr)
	}
	if schema, _, ok := statTable(cat, s.Table); ok {
		if err := checkWhereQualifiers(s.Table, s.Where); err != nil {
			return nil, err
		}
		scan := &planNode{label: "Stat Scan on " + s.Table, op: tr.scanOp()}
		if len(s.Where) > 0 {
			scan.notes = append(scan.notes, "Filter: "+condsString(s.Where))
		}
		return shapePlanNodes(singleSource(s.Table, schema), s, scan, false, tr)
	}
	schema, err := cat.TableSchema(s.Table)
	if err != nil {
		return nil, err
	}
	indexes, err := cat.IndexInfo(s.Table)
	if err != nil {
		return nil, err
	}
	if err := checkWhereQualifiers(s.Table, s.Where); err != nil {
		return nil, err
	}
	p, err := planWhere(schema, indexes, s.Where)
	if err != nil {
		return nil, err
	}
	ss := singleSource(s.Table, schema)
	aggregate := len(s.GroupBy) > 0 || hasAggs(s.Exprs)
	sorted := false
	if !aggregate && len(s.OrderBy) > 0 {
		sorted, err = orderSatisfied(ss, indexes, p, s.OrderBy)
		if err != nil {
			return nil, err
		}
	}
	scan := scanPlanNode(s.Table, schema, indexes, p, tr.scanOp())
	if sorted {
		scan.notes = append(scan.notes, "Order: "+p.index+" scan order satisfies ORDER BY (sort avoided)")
	}
	if !aggregate && s.Limit > 0 && (len(s.OrderBy) == 0 || sorted) {
		scan.notes = append(scan.notes, fmt.Sprintf("Limit Pushdown: stop after %d rows", s.Limit))
	}
	return shapePlanNodes(ss, s, scan, sorted, tr)
}

// buildJoinPlan reconstructs the join subtree via the executor's own
// strategy choice (hint-less, so the pick is recomputed deterministically).
func buildJoinPlan(cat Catalog, s SelectStmt, tr *execTrace) (*planNode, error) {
	ji, err := resolveJoin(cat, s)
	if err != nil {
		return nil, err
	}
	sh := chooseJoinStrategy(nil, ji)
	cond := refString(s.Join.Left) + " = " + refString(s.Join.Right)
	var join *planNode
	if sh.probeIndex != "" {
		driveName, driveSchema, driveConds := s.Table, ji.outerSchema, ji.outerConds
		driveIndexes := ji.outerIndexes
		probeName, probeSchema, probeConds := s.Join.Table, ji.innerSchema, ji.innerConds
		probeCol, driveCol := ji.innerPos, ji.outerPos
		if sh.swapped {
			driveName, driveSchema, driveConds = s.Join.Table, ji.innerSchema, ji.innerConds
			driveIndexes = ji.innerIndexes
			probeName, probeSchema, probeConds = s.Table, ji.outerSchema, ji.outerConds
			probeCol, driveCol = ji.outerPos, ji.innerPos
		}
		dp, err := planWhere(driveSchema, driveIndexes, driveConds)
		if err != nil {
			return nil, err
		}
		drive := scanPlanNode(driveName, driveSchema, driveIndexes, dp, tr.scanOp())
		probe := &planNode{
			label: "Index Scan using " + sh.probeIndex + " on " + probeName,
			op:    tr.probeOp(),
		}
		probe.notes = append(probe.notes, "Index Cond: "+probeSchema.Cols[probeCol].Name+
			" = "+driveName+"."+driveSchema.Cols[driveCol].Name)
		if len(probeConds) > 0 {
			probe.notes = append(probe.notes, "Filter: "+condsString(probeConds))
		}
		join = &planNode{
			label:    "IndexNestedLoop Join (" + cond + ")",
			children: []*planNode{drive, probe},
		}
	} else {
		outp, err := planWhere(ji.outerSchema, ji.outerIndexes, ji.outerConds)
		if err != nil {
			return nil, err
		}
		ip, err := planWhere(ji.innerSchema, ji.innerIndexes, ji.innerConds)
		if err != nil {
			return nil, err
		}
		outer := scanPlanNode(s.Table, ji.outerSchema, ji.outerIndexes, outp, tr.scanOp())
		inner := scanPlanNode(s.Join.Table, ji.innerSchema, ji.innerIndexes, ip, tr.buildOp())
		build := &planNode{label: "Hash Build", children: []*planNode{inner}}
		join = &planNode{
			label:    "Hash Join (" + cond + ")",
			op:       tr.probeOp(),
			children: []*planNode{outer, build},
		}
	}
	return shapePlanNodes(ji.ss, s, join, false, tr)
}

// buildPlan reconstructs the plan tree for any explainable statement.
func buildPlan(cat Catalog, stmt Stmt, tr *execTrace) (*planNode, error) {
	switch s := stmt.(type) {
	case SelectStmt:
		return buildSelectPlan(cat, s, tr)
	case InsertStmt:
		return &planNode{
			label: fmt.Sprintf("Insert on %s (%d rows)", s.Table, len(s.Rows)),
			op:    tr.modifyOp(),
		}, nil
	case UpdateStmt:
		schema, err := cat.TableSchema(s.Table)
		if err != nil {
			return nil, err
		}
		indexes, err := cat.IndexInfo(s.Table)
		if err != nil {
			return nil, err
		}
		p, err := planWhere(schema, indexes, s.Where)
		if err != nil {
			return nil, err
		}
		scan := scanPlanNode(s.Table, schema, indexes, p, tr.scanOp())
		return &planNode{
			label:    "Update on " + s.Table,
			op:       tr.modifyOp(),
			children: []*planNode{scan},
		}, nil
	case DeleteStmt:
		schema, err := cat.TableSchema(s.Table)
		if err != nil {
			return nil, err
		}
		indexes, err := cat.IndexInfo(s.Table)
		if err != nil {
			return nil, err
		}
		p, err := planWhere(schema, indexes, s.Where)
		if err != nil {
			return nil, err
		}
		scan := scanPlanNode(s.Table, schema, indexes, p, tr.scanOp())
		return &planNode{
			label:    "Delete on " + s.Table,
			op:       tr.modifyOp(),
			children: []*planNode{scan},
		}, nil
	default:
		return nil, ErrUnsupported
	}
}

// renderPlan flattens the tree Postgres-style: the root bare, children
// prefixed with "->" at increasing indent, notes under their node.
func renderPlan(n *planNode, depth int, analyze bool, out *[]string) {
	line := n.label
	if depth > 0 {
		line = strings.Repeat("  ", depth) + "-> " + n.label
	}
	if analyze && n.op != nil {
		line += fmt.Sprintf(" (actual rows=%d loops=%d time=%.3f ms)",
			n.op.rowsOut, n.op.loops, float64(n.op.nanos)/1e6)
	}
	*out = append(*out, line)
	for _, note := range n.notes {
		*out = append(*out, strings.Repeat("  ", depth+1)+"   "+note)
	}
	for _, c := range n.children {
		renderPlan(c, depth+1, analyze, out)
	}
}

// execExplain runs EXPLAIN [ANALYZE]: for plain EXPLAIN only the planner
// runs; ANALYZE executes the statement first (including its side effects,
// like Postgres) with a trace collector attached, then renders the tree
// with per-operator actuals and the total wall time.
func execExplain(cat Catalog, tx Txn, s ExplainStmt, sc *Scratch, sink RowSink) (int, error) {
	switch s.Inner.(type) {
	case ExplainStmt:
		return 0, fmt.Errorf("%w: nested EXPLAIN", ErrUnsupported)
	case CreateTableStmt, CreateIndexStmt:
		return 0, fmt.Errorf("%w: EXPLAIN of DDL", ErrUnsupported)
	}
	var tr *execTrace
	if s.Analyze {
		tr = &execTrace{}
		start := time.Now()
		if _, err := exec(cat, tx, s.Inner, nil, tr, sc, discard{}); err != nil {
			return 0, err
		}
		tr.total = time.Since(start)
	}
	root, err := buildPlan(cat, s.Inner, tr)
	if err != nil {
		return 0, err
	}
	var lines []string
	renderPlan(root, 0, s.Analyze, &lines)
	if s.Analyze {
		lines = append(lines, fmt.Sprintf("Execution Time: %.3f ms", float64(tr.total.Nanoseconds())/1e6))
	}
	sink.Header([]string{"plan"})
	for _, l := range lines {
		if !sink.Row(rel.Row{rel.Str(l)}) {
			break
		}
	}
	return len(lines), nil
}
