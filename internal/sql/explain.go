package sql

import (
	"fmt"
	"strings"
	"time"

	"phoebedb/internal/rel"
)

// EXPLAIN and EXPLAIN ANALYZE.
//
// EXPLAIN renders the plan value the executor runs: planSelect's
// selectPlan for a SELECT (access path, join strategy, in-scan aggregate
// fold, sort avoidance, LIMIT pushdown) and planWrite's target scan for an
// UPDATE or DELETE. Nothing is planned twice, so the rendered tree cannot
// drift from execution. EXPLAIN ANALYZE runs that same plan with a trace
// collector threaded through every operator and annotates each node with
// its actuals: rows out, loop count, and wall time. The collector never
// picks a path, so the traced run is the untraced one.
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

// count records one untimed invocation: an operator that runs inside
// another's callback, whose time that one already carries.
func (op *opTrace) count(in, out int64) {
	if op == nil {
		return
	}
	op.loops++
	op.rows(in, out)
}

// rows adds to the operator's row counters.
func (op *opTrace) rows(in, out int64) {
	if op == nil {
		return
	}
	op.rowsIn += in
	op.rowsOut += out
}

// The operators of the gather → join → aggregate → sort → limit → project
// pipeline, plus the DML apply step: one execTrace slot each.
const (
	opScan    = iota // driving scan (or stat-table / streaming scan)
	opProbe          // join probe side (index probes, or hash probe)
	opBuild          // hash-join build-side scan
	opAgg            // grouping + aggregate fold
	opSort           // ORDER BY sort
	opLimit          // LIMIT truncation
	opProject        // output projection
	opModify         // INSERT/UPDATE/DELETE apply loop
	numOps
)

// execTrace is the per-statement collector, one opTrace per operator.
type execTrace [numOps]opTrace

// op returns operator k's slot, or nil on a nil trace, so operators can be
// handed a slot unconditionally.
func (tr *execTrace) op(k int) *opTrace {
	if tr == nil {
		return nil
	}
	return &tr[k]
}

// PlanNoter is implemented by transaction handles that record plan
// provenance (for the slow log and per-statement attribution).
type PlanNoter interface {
	NotePlan(desc string)
}

// noteLabel records the chosen plan's one-line provenance on transaction
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

// foldLabel marks the in-scan aggregate fold, in plan trees and, followed
// by the table, in the slow log's plan line.
const foldLabel = "Aggregate (in scan)"

// joinLabel is the one-line join-strategy description for provenance:
// strategy, driving-side access path, and the probed/built side.
func joinLabel(sh selectHint, driveLabel, otherTable string) string {
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
func scanPlanNode(t planTable, p plan, op *opTrace) *planNode {
	n := &planNode{label: scanLabel(t.name, p), op: op}
	if p.empty {
		n.notes = append(n.notes, "One-Time Filter: false (contradictory WHERE)")
		return n
	}
	if p.index != "" && len(p.prefixVals) > 0 {
		for _, ix := range t.indexes {
			if ix.Name != p.index {
				continue
			}
			conds := make([]string, len(p.prefixVals))
			for j, v := range p.prefixVals {
				conds[j] = t.schema.Cols[ix.Cols[j]].Name + " = " + v.String()
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
		if _, rest := p.splitResidual(t.schema, new(Scratch)); len(rest) == 0 {
			n.notes = append(n.notes, "Vectorized: true")
		}
	}
	return n
}

// planTree renders the plan: its gather node under the shaping nodes the
// executor applies — aggregate → sort → limit → project, innermost first.
func (sp *selectPlan) planTree(tr *execTrace) *planNode {
	s := &sp.s
	n := sp.gatherNode(tr)
	wrap := func(label string, op *opTrace) {
		n = &planNode{label: label, op: op, children: []*planNode{n}}
	}
	switch {
	case sp.kind == selFold:
		wrap(foldLabel, tr.op(opAgg))
	case len(s.GroupBy) > 0:
		keys := make([]string, len(s.GroupBy))
		for i, r := range s.GroupBy {
			keys[i] = refString(r)
		}
		wrap("HashAggregate (group by "+strings.Join(keys, ", ")+")", tr.op(opAgg))
	case sp.aggregate:
		wrap("Aggregate", tr.op(opAgg))
	}
	if len(s.OrderBy) > 0 && (sp.aggregate || !sp.sorted) {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = refString(k.Ref)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		wrap("Sort ("+strings.Join(keys, ", ")+")", tr.op(opSort))
	}
	if s.Limit > 0 {
		wrap(fmt.Sprintf("Limit %d", s.Limit), tr.op(opLimit))
	}
	names := sp.outColNames()
	wrap("Project ("+strings.Join(names, ", ")+")", tr.op(opProject))
	return n
}

// outColNames names the plan's output columns.
func (sp *selectPlan) outColNames() []string {
	if sp.proj != nil {
		return sp.proj.cols
	}
	return colNames(sp.outCols)
}

// gatherNode renders where the plan's rows come from: a stat table, the
// single table's access path, or the join.
func (sp *selectPlan) gatherNode(tr *execTrace) *planNode {
	var n *planNode
	switch {
	case sp.kind == selStat:
		n = &planNode{label: "Stat Scan on " + sp.from.name, op: tr.op(opScan)}
		if len(sp.scan.residual) > 0 {
			n.notes = append(n.notes, "Filter: "+condsString(sp.scan.residual))
		}
	case sp.join != nil:
		n = sp.joinNode(tr)
	default:
		n = scanPlanNode(sp.from, sp.scan, tr.op(opScan))
		if sp.sorted {
			n.notes = append(n.notes, "Order: "+sp.scan.index+" scan order satisfies ORDER BY (sort avoided)")
		}
	}
	if sp.early > 0 {
		n.notes = append(n.notes, fmt.Sprintf("Limit Pushdown: stop after %d rows", sp.early))
	}
	return n
}

// joinNode renders the join: the driving scan and the probed index, or
// the scanned outer side and the hash build over the inner one.
func (sp *selectPlan) joinNode(tr *execTrace) *planNode {
	jp := sp.join
	cond := refString(sp.s.Join.Left) + " = " + refString(sp.s.Join.Right)
	drive := scanPlanNode(jp.drive.planTable, sp.scan, tr.op(opScan))
	if jp.probeIndex == "" {
		inner := scanPlanNode(jp.other.planTable, jp.build, tr.op(opBuild))
		build := &planNode{label: "Hash Build", children: []*planNode{inner}}
		return &planNode{label: "Hash Join (" + cond + ")", op: tr.op(opProbe), children: []*planNode{drive, build}}
	}
	probe := &planNode{label: "Index Scan using " + jp.probeIndex + " on " + jp.other.name, op: tr.op(opProbe)}
	var conds []string
	ix := indexNamed(jp.other.indexes, jp.probeIndex)
	for i, v := range jp.probeKey[:len(jp.probeKey)-1] {
		conds = append(conds, jp.other.schema.Cols[ix.Cols[i]].Name+" = "+v.String())
	}
	conds = append(conds, jp.other.schema.Cols[jp.other.col].Name+" = "+jp.drive.name+"."+jp.drive.schema.Cols[jp.drive.col].Name)
	probe.notes = append(probe.notes, "Index Cond: "+strings.Join(conds, " AND "))
	switch {
	case jp.probeEmpty:
		probe.notes = append(probe.notes, "One-Time Filter: false (contradictory WHERE)")
	case len(jp.probeConds) > 0:
		probe.notes = append(probe.notes, "Filter: "+condsString(jp.probeConds))
	}
	return &planNode{label: "IndexNestedLoop Join (" + cond + ")", children: []*planNode{drive, probe}}
}

// explainStmt plans stmt, runs the plan when tr is set (EXPLAIN ANALYZE),
// and renders it.
func explainStmt(cat Catalog, tx Txn, stmt Stmt, tr *execTrace, sc *Scratch) (*planNode, error) {
	switch s := stmt.(type) {
	case SelectStmt:
		sp, err := planSelect(cat, s, nil, sc)
		if err == nil && tr != nil {
			_, err = sp.run(cat, tx, tr, sc, discard{})
		}
		if err != nil {
			return nil, err
		}
		return sp.planTree(tr), nil
	case InsertStmt:
		if tr != nil {
			if _, err := execInsert(cat, tx, s, tr, sc); err != nil {
				return nil, err
			}
		}
		return &planNode{label: fmt.Sprintf("Insert on %s (%d rows)", s.Table, len(s.Rows)), op: tr.op(opModify)}, nil
	case UpdateStmt:
		wp, err := planWrite(cat, nil, s.Table, s.Where, sc)
		if err == nil && tr != nil {
			_, err = wp.update(tx, s.Set, tr, sc)
		}
		if err != nil {
			return nil, err
		}
		return wp.planTree("Update", tr), nil
	case DeleteStmt:
		wp, err := planWrite(cat, nil, s.Table, s.Where, sc)
		if err == nil && tr != nil {
			_, err = wp.apply(tx, tr, sc, func(rid rel.RowID) error { return tx.Delete(s.Table, rid) })
		}
		if err != nil {
			return nil, err
		}
		return wp.planTree("Delete", tr), nil
	case ExplainStmt:
		return nil, fmt.Errorf("%w: nested EXPLAIN", ErrUnsupported)
	case CreateTableStmt, CreateIndexStmt:
		return nil, fmt.Errorf("%w: EXPLAIN of DDL", ErrUnsupported)
	}
	return nil, ErrUnsupported
}

// planTree renders a write: the apply node over its target scan.
func (wp *writePlan) planTree(verb string, tr *execTrace) *planNode {
	return &planNode{
		label:    verb + " on " + wp.from.name,
		op:       tr.op(opModify),
		children: []*planNode{scanPlanNode(wp.from, wp.scan, tr.op(opScan))},
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

// execExplain runs EXPLAIN [ANALYZE]: plain EXPLAIN only plans; ANALYZE
// also runs the plan (side effects included, like Postgres) with a trace
// collector attached, then renders the tree with per-operator actuals and
// the total wall time.
func execExplain(cat Catalog, tx Txn, s ExplainStmt, sc *Scratch, sink RowSink) (int, error) {
	var tr *execTrace
	if s.Analyze {
		tr = &execTrace{}
	}
	start := time.Now()
	root, err := explainStmt(cat, tx, s.Inner, tr, sc)
	if err != nil {
		return 0, err
	}
	var lines []string
	renderPlan(root, 0, s.Analyze, &lines)
	if s.Analyze {
		lines = append(lines, fmt.Sprintf("Execution Time: %.3f ms", float64(time.Since(start).Nanoseconds())/1e6))
	}
	sink.Header([]string{"plan"})
	for _, l := range lines {
		if !sink.Row(rel.Row{rel.Str(l)}) {
			break
		}
	}
	return len(lines), nil
}
