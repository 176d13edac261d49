package sql

import "phoebedb/internal/rel"

// RowSink receives a SELECT's output. The executor has one row pipeline and
// two consumers: the materializing sink behind Exec's Result (Materialize),
// and a front end's encoder that writes each row straight into its response
// buffer.
type RowSink interface {
	// Header announces the output columns, once, before any row — also for
	// an empty result, so a sink that never saw Header knows the statement
	// was not a SELECT. names is shared with the plan cache: read-only, and
	// a sink that keeps it copies it.
	Header(names []string)
	// Row receives one output row. The row is borrowed (DESIGN.md §4.10): it
	// may alias the scan's scratch or the executor's projection buffer and
	// is valid only until Row returns. Returning false stops the statement's
	// row production early, without an error.
	Row(row rel.Row) bool
}

// collector is the materializing sink: the caller-owned Result of Exec
// and DB.ExecSQL. Every row and the column list are copied.
type collector struct{ res *Result }

// Materialize runs one statement — run executes it into the sink it is
// given and returns the rows returned or affected — and collects its output
// into a Result the caller owns.
func Materialize(run func(sink RowSink) (int, error)) (Result, error) {
	var res Result
	n, err := run(collector{&res})
	if res.Columns == nil { // a write: n is its affected-row count
		res.Affected = n
	}
	return res, err
}

func (c collector) Header(names []string) {
	c.res.Columns = append(make([]string, 0, len(names)), names...)
}

func (c collector) Row(row rel.Row) bool {
	c.res.Rows = append(c.res.Rows, row.Clone())
	return true
}

// discard drops a traced statement's output (EXPLAIN ANALYZE renders the
// plan, not the rows).
type discard struct{}

func (discard) Header([]string)  {}
func (discard) Row(rel.Row) bool { return true }

// Scratch is the reusable memory of one statement execution: the normalized
// cache key, the extracted literals, the bound WHERE/SET/VALUES, the rebuilt
// plan's value lists, the projection row, a join's combined row, a gather's
// rows and the scan callbacks. It has one owner at a time — the task slot a
// statement runs on — and every statement starts by overwriting what the
// previous one left, so nothing in it may be retained past the statement. The zero value is ready to use; a throwaway
// Scratch behaves exactly like a long-lived one, it just allocates.
//
// One planned scan runs at a time per Scratch (the hash join's build and
// probe scans are sequential; an index nested loop probes through the
// transaction directly), so the plan lists are not re-entrant.
type Scratch struct {
	key    []byte
	params []rel.Value

	where   []Cond
	set     map[string]rel.Value // bound SET
	coerced map[string]rel.Value // SET coerced to the column types
	insVals []rel.Value
	insRows [][]rel.Value

	prefix   []rel.Value
	residual []Cond
	strips   []rel.ColPred
	rest     []Cond

	row  rel.Row
	rids []rel.RowID
	// comb is a join's combined (outer ++ inner) row.
	comb rel.Row
	// gathered are a shaped SELECT's gathered rows, their values in
	// gatheredVals (a row that does not fit starts a larger array, which
	// the next statement reuses).
	gathered     []rel.Row
	gatheredVals []rel.Value

	scan scanState
	emit emitState
	// The scan callbacks are method values bound once per Scratch: building
	// one per statement would allocate it, as the closures they replace did.
	visitFn, emitFn, collectFn func(rel.RowID, rel.Row) bool
}

// scanState is what scanMatching's per-row filter needs.
type scanState struct {
	schema   *rel.Schema
	residual []Cond
	op       *opTrace
	fn       func(rel.RowID, rel.Row) bool
}

// emitState is the streaming SELECT's consumer: project, count, hand to
// the sink, stop at LIMIT.
type emitState struct {
	sink  RowSink
	proj  []int // nil: the scan row is the output row (SELECT *)
	limit int
	n     int
}

func (sc *Scratch) bindCallbacks() {
	if sc.visitFn == nil {
		sc.visitFn, sc.emitFn, sc.collectFn = sc.visit, sc.emitRow, sc.collect
	}
}

// visit applies the residual filter in front of the scan's consumer.
func (sc *Scratch) visit(rid rel.RowID, row rel.Row) bool {
	st := &sc.scan
	if st.op != nil {
		st.op.rowsIn++
	}
	if !matches(st.schema, row, st.residual) {
		return true
	}
	if st.op != nil {
		st.op.rowsOut++
	}
	return st.fn(rid, row)
}

func (sc *Scratch) emitRow(_ rel.RowID, row rel.Row) bool {
	em := &sc.emit
	if em.proj != nil {
		out := sc.rowBuf(len(em.proj))
		for i, pos := range em.proj {
			out[i] = row[pos]
		}
		row = out
	}
	em.n++
	return em.sink.Row(row) && (em.limit == 0 || em.n < em.limit)
}

func (sc *Scratch) collect(rid rel.RowID, _ rel.Row) bool {
	sc.rids = append(sc.rids, rid)
	return true
}

// maxKeptGathered bounds, in values, the gather array a statement leaves
// for the next one: a large result's is dropped.
const maxKeptGathered = 4096

// releaseGathered lets go of what the gathered rows reference (a string
// value pins its page's bytes or a whole decoded cold block).
func (sc *Scratch) releaseGathered() {
	clear(sc.gathered)
	clear(sc.gatheredVals)
	sc.gathered, sc.gatheredVals = sc.gathered[:0], sc.gatheredVals[:0]
	if cap(sc.gatheredVals) > maxKeptGathered || cap(sc.gathered) > maxKeptGathered {
		sc.gathered, sc.gatheredVals = nil, nil
	}
}

// rowBuf returns the scratch row resized to n values.
func (sc *Scratch) rowBuf(n int) rel.Row {
	if cap(sc.row) < n {
		sc.row = make(rel.Row, n)
	}
	return sc.row[:n]
}

func bindVal(v rel.Value, params []rel.Value) rel.Value {
	if isParam(v) {
		return params[v.I]
	}
	return v
}

// bindConds substitutes params into a template's WHERE, in the scratch list.
func (sc *Scratch) bindConds(conds []Cond, params []rel.Value) []Cond {
	if conds == nil {
		return nil
	}
	out := sc.where[:0]
	for _, c := range conds {
		out = append(out, Cond{Table: c.Table, Col: c.Col, Op: c.Op, Val: bindVal(c.Val, params)})
	}
	sc.where = out
	return out
}

// bindSet substitutes params into a template's SET, in the scratch map.
func (sc *Scratch) bindSet(set map[string]rel.Value, params []rel.Value) map[string]rel.Value {
	if sc.set == nil {
		sc.set = make(map[string]rel.Value, len(set))
	}
	clear(sc.set)
	for k, v := range set {
		sc.set[k] = bindVal(v, params)
	}
	return sc.set
}

// bindRows substitutes params into a template's VALUES lists, all rows in
// one scratch array.
func (sc *Scratch) bindRows(rows [][]rel.Value, params []rel.Value) [][]rel.Value {
	vals, out := sc.insVals[:0], sc.insRows[:0]
	for _, r := range rows {
		for _, v := range r {
			vals = append(vals, bindVal(v, params))
		}
	}
	off := 0
	for _, r := range rows {
		out = append(out, vals[off:off+len(r):off+len(r)])
		off += len(r)
	}
	sc.insVals, sc.insRows = vals, out
	return out
}
