package pax

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"phoebedb/internal/rel"
)

// Vectorized scan support (§5.2): predicates evaluate column-at-a-time
// against fixed-width minipages into a selection bitmap, so disqualified
// rows are never materialized. The bitmap then drives row gathering or a
// column-strip aggregate.

// Sel is a selection bitmap over a page's slots: bit i set means slot i is
// selected. Capacity is fixed at allocation; the word slice is reusable
// across pages via Reset.
type Sel []uint64

// MakeSel returns a cleared bitmap able to address n slots.
func MakeSel(n int) Sel {
	return make(Sel, (n+63)/64)
}

// Reset re-dimensions the bitmap (reusing storage when it fits) and sets
// the first n bits — the "all candidates" starting state.
func (s Sel) Reset(n int) Sel {
	words := (n + 63) / 64
	if cap(s) < words {
		s = make(Sel, words)
	}
	s = s[:words]
	for i := range s {
		s[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && words > 0 {
		s[words-1] = (uint64(1) << r) - 1
	}
	return s
}

// Set marks slot i selected.
func (s Sel) Set(i int) { s[i/64] |= 1 << (i % 64) }

// Clear unmarks slot i.
func (s Sel) Clear(i int) { s[i/64] &^= 1 << (i % 64) }

// Has reports whether slot i is selected.
func (s Sel) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Count returns the number of selected slots.
func (s Sel) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach invokes fn for each selected slot in ascending order until fn
// returns false.
func (s Sel) ForEach(fn func(slot int) bool) {
	for wi, w := range s {
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// errVarWidth rejects batch evaluation over a var-width column; callers
// route those predicates through the row-at-a-time path.
func errVarWidth(col int) error {
	return fmt.Errorf("pax: column %d is not fixed-width", col)
}

// FilterFixed evaluates fixed-width column predicates directly against the
// page's minipage bytes, clearing sel bits for slots that fail any
// predicate. Only slots already selected are examined (the caller seeds sel
// with its candidate set — typically every live slot), so the cost per
// predicate is one contiguous minipage walk over surviving slots, with no
// row materialization. Every predicate column must be fixed-width.
func (p *Page) FilterFixed(preds []rel.ColPred, sel Sel) error {
	for _, pr := range preds {
		fi := p.fixIdx[pr.Col]
		if fi < 0 {
			return errVarWidth(pr.Col)
		}
		mp := p.fixed[fi]
		if p.schema.Cols[pr.Col].Type == rel.TInt64 {
			rv := pr.Val.I
			op := pr.Op
			for wi := range sel {
				w := sel[wi]
				base := wi * 64
				for w != 0 {
					i := base + bits.TrailingZeros64(w)
					w &= w - 1
					v := int64(binary.LittleEndian.Uint64(mp[i*8 : i*8+8]))
					if !acceptInt(op, v, rv) {
						sel.Clear(i)
					}
				}
			}
		} else {
			rv := pr.Val.F
			op := pr.Op
			for wi := range sel {
				w := sel[wi]
				base := wi * 64
				for w != 0 {
					i := base + bits.TrailingZeros64(w)
					w &= w - 1
					v := math.Float64frombits(binary.LittleEndian.Uint64(mp[i*8 : i*8+8]))
					if !acceptFloat(op, v, rv) {
						sel.Clear(i)
					}
				}
			}
		}
	}
	return nil
}

func acceptInt(op rel.CmpOp, a, b int64) bool {
	switch op {
	case rel.CmpEq:
		return a == b
	case rel.CmpNe:
		return a != b
	case rel.CmpLt:
		return a < b
	case rel.CmpLe:
		return a <= b
	case rel.CmpGt:
		return a > b
	case rel.CmpGe:
		return a >= b
	}
	return false
}

func acceptFloat(op rel.CmpOp, a, b float64) bool {
	switch op {
	case rel.CmpEq:
		return a == b
	case rel.CmpNe:
		return a != b
	case rel.CmpLt:
		return a < b
	case rel.CmpLe:
		return a <= b
	case rel.CmpGt:
		return a > b
	case rel.CmpGe:
		return a >= b
	}
	return false
}

// Zone is a min/max summary of one fixed-width column over a set of rows
// — a hot page, a cold block or a cold segment — that lets a scan skip
// the set without reading it. Min and Max hold the 8-byte minipage
// encoding (RawBits), ordered by Kind. Both tiers keep one invariant: a
// zone bounds every value of its column that a snapshot can still read
// from the rows it summarises. The rule below is the only one either tier
// prunes by, and it holds FilterFixed's contract: when a zone prunes a
// predicate, FilterFixed selects no row the zone bounds.
type Zone struct {
	Col  uint16
	Kind rel.Type
	Min  uint64
	Max  uint64
}

// RawBits returns a fixed-width value's 8-byte minipage encoding.
func RawBits(v rel.Value) uint64 {
	if v.Kind == rel.TFloat64 {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

// emptyZone returns a zone that admits no value (Min above Max), so the
// first value stored widens it to exactly that value.
func emptyZone(col int, kind rel.Type) Zone {
	if kind == rel.TFloat64 {
		return Zone{Col: uint16(col), Kind: kind, Min: math.Float64bits(math.Inf(1)), Max: math.Float64bits(math.Inf(-1))}
	}
	return Zone{Col: uint16(col), Kind: kind, Min: math.MaxInt64, Max: 1 << 63}
}

// Widen extends the zone to cover [min, max]. A NaN never widens a zone:
// it fails every ordered comparison, so Prunes never counts on a zone
// covering it.
func (z *Zone) Widen(min, max uint64) {
	if ZoneLess(z.Kind, min, z.Min) {
		z.Min = min
	}
	if ZoneLess(z.Kind, z.Max, max) {
		z.Max = max
	}
}

// ZoneLess orders two minipage encodings of kind.
func ZoneLess(kind rel.Type, a, b uint64) bool {
	if kind == rel.TFloat64 {
		return math.Float64frombits(a) < math.Float64frombits(b)
	}
	return int64(a) < int64(b)
}

// Prunes reports whether the predicate provably rejects every row whose
// column value lies within the zone. A float zone never prunes "!=": that
// is the one operator a NaN satisfies, and no zone covers a NaN.
func (z Zone) Prunes(p rel.ColPred) bool {
	switch z.Kind {
	case rel.TInt64:
		return p.Val.Kind == rel.TInt64 && prunesOrdered(int64(z.Min), int64(z.Max), p.Val.I, p.Op)
	case rel.TFloat64:
		return p.Val.Kind == rel.TFloat64 && p.Op != rel.CmpNe &&
			prunesOrdered(math.Float64frombits(z.Min), math.Float64frombits(z.Max), p.Val.F, p.Op)
	}
	return false
}

func prunesOrdered[T int64 | float64](min, max, v T, op rel.CmpOp) bool {
	switch op {
	case rel.CmpEq:
		return v < min || v > max
	case rel.CmpNe:
		return min == v && max == v
	case rel.CmpLt:
		return min >= v
	case rel.CmpLe:
		return min > v
	case rel.CmpGt:
		return max <= v
	case rel.CmpGe:
		return max < v
	}
	return false
}

// ZonesPrune reports whether any predicate alone rejects the whole zone
// range (predicates are conjunctive).
func ZonesPrune(zones []Zone, preds []rel.ColPred) bool {
	for _, p := range preds {
		for _, z := range zones {
			if int(z.Col) == p.Col && z.Prunes(p) {
				return true
			}
		}
	}
	return false
}

// Prunes reports whether the page's zones refute preds, so that FilterFixed
// would select none of its rows. A page's zone is widened by every value
// stored in it since it was built and never narrowed, so it also bounds
// every older version of its rows a snapshot can still reach: each was
// once stored in place in this page. A view page carries no zones and
// prunes nothing.
func (p *Page) Prunes(preds []rel.ColPred) bool { return ZonesPrune(p.zones, preds) }

// AggState accumulates pushed-down aggregates across pages. Call Fold once
// per page with that page's post-filter selection, then Finish.
type AggState struct {
	specs []rel.AggSpec
	// one accumulator per spec; ints and floats tracked separately, the
	// column type picks which is live.
	sumI  []int64
	sumF  []float64
	minI  []int64
	maxI  []int64
	minF  []float64
	maxF  []float64
	minS  []string
	maxS  []string
	n     int64
	first bool
}

// NewAggState returns an accumulator for the given specs.
func NewAggState(specs []rel.AggSpec) *AggState {
	k := len(specs)
	return &AggState{
		specs: specs,
		sumI:  make([]int64, k), sumF: make([]float64, k),
		minI: make([]int64, k), maxI: make([]int64, k),
		minF: make([]float64, k), maxF: make([]float64, k),
		minS: make([]string, k), maxS: make([]string, k),
		first: true,
	}
}

// N returns the number of qualifying rows folded so far.
func (a *AggState) N() int64 { return a.n }

// Fold accumulates the page's selected slots into the aggregates, walking
// one minipage per spec. Fixed-width columns fold straight from page
// bytes; MIN/MAX over a var-width column copies the candidate strings
// (they must outlive the page latch).
func (a *AggState) Fold(p *Page, sel Sel) error {
	cnt := sel.Count()
	if cnt == 0 {
		return nil
	}
	for si, sp := range a.specs {
		if sp.Op == rel.AggOpCount {
			continue
		}
		ct := p.schema.Cols[sp.Col].Type
		fi := p.fixIdx[sp.Col]
		switch {
		case fi >= 0 && ct == rel.TInt64:
			mp := p.fixed[fi]
			first := a.first
			sel.ForEach(func(i int) bool {
				v := int64(binary.LittleEndian.Uint64(mp[i*8 : i*8+8]))
				a.sumI[si] += v
				if first || v < a.minI[si] {
					a.minI[si] = v
				}
				if first || v > a.maxI[si] {
					a.maxI[si] = v
				}
				first = false
				return true
			})
		case fi >= 0:
			mp := p.fixed[fi]
			first := a.first
			sel.ForEach(func(i int) bool {
				v := math.Float64frombits(binary.LittleEndian.Uint64(mp[i*8 : i*8+8]))
				a.sumF[si] += v
				if first || v < a.minF[si] {
					a.minF[si] = v
				}
				if first || v > a.maxF[si] {
					a.maxF[si] = v
				}
				first = false
				return true
			})
		default:
			if sp.Op == rel.AggOpSum {
				return fmt.Errorf("pax: SUM over var-width column %d", sp.Col)
			}
			vc := p.vars[p.varIdx[sp.Col]]
			first := a.first
			sel.ForEach(func(i int) bool {
				v := string(vc[i])
				if first || v < a.minS[si] {
					a.minS[si] = v
				}
				if first || v > a.maxS[si] {
					a.maxS[si] = v
				}
				first = false
				return true
			})
		}
	}
	a.n += int64(cnt)
	a.first = false
	return nil
}

// FoldRow accumulates one materialized row — frozen-layer rows and
// chain-walked older versions, which bypass the page fold.
func (a *AggState) FoldRow(row rel.Row) {
	for si, sp := range a.specs {
		if sp.Op == rel.AggOpCount {
			continue
		}
		v := row[sp.Col]
		switch v.Kind {
		case rel.TInt64:
			a.sumI[si] += v.I
			if a.first || v.I < a.minI[si] {
				a.minI[si] = v.I
			}
			if a.first || v.I > a.maxI[si] {
				a.maxI[si] = v.I
			}
		case rel.TFloat64:
			a.sumF[si] += v.F
			if a.first || v.F < a.minF[si] {
				a.minF[si] = v.F
			}
			if a.first || v.F > a.maxF[si] {
				a.maxF[si] = v.F
			}
		default:
			if a.first || v.S < a.minS[si] {
				a.minS[si] = v.S
			}
			if a.first || v.S > a.maxS[si] {
				a.maxS[si] = v.S
			}
		}
	}
	a.n++
	a.first = false
}

// Result returns the final value for spec si. Meaningless when N is 0 —
// the SQL layer substitutes its empty-input defaults.
func (a *AggState) Result(si int, colType rel.Type) rel.Value {
	sp := a.specs[si]
	switch sp.Op {
	case rel.AggOpCount:
		return rel.Int(a.n)
	case rel.AggOpSum:
		if colType == rel.TInt64 {
			return rel.Int(a.sumI[si])
		}
		return rel.Float(a.sumF[si])
	case rel.AggOpMin:
		switch colType {
		case rel.TInt64:
			return rel.Int(a.minI[si])
		case rel.TFloat64:
			return rel.Float(a.minF[si])
		default:
			return rel.Str(a.minS[si])
		}
	case rel.AggOpMax:
		switch colType {
		case rel.TInt64:
			return rel.Int(a.maxI[si])
		case rel.TFloat64:
			return rel.Float(a.maxF[si])
		default:
			return rel.Str(a.maxS[si])
		}
	}
	return rel.Value{}
}
