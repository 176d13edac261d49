package pax

import (
	"math"
	"testing"

	"phoebedb/internal/rel"
)

// A page's zone is widened by every value stored in the page and never
// narrowed: deleting or overwriting a row leaves its old value inside the
// zone. Deserialize rebuilds the zone from the stored rows only, and a view
// page carries no zone.
func TestPageZoneWidensNeverNarrows(t *testing.T) {
	p := fillPage(t, 8) // id 0..7, score 0..3.5
	lt := func(col int, v rel.Value) []rel.ColPred { return []rel.ColPred{{Col: col, Op: rel.CmpLt, Val: v}} }
	gt := func(col int, v rel.Value) []rel.ColPred { return []rel.ColPred{{Col: col, Op: rel.CmpGt, Val: v}} }
	if !p.Prunes(gt(0, rel.Int(7))) || p.Prunes(gt(0, rel.Int(6))) || !p.Prunes(lt(2, rel.Float(0))) {
		t.Fatal("zone of ids 0..7, scores 0..3.5 is not [0,7] x [0,3.5]")
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	p.SetCol(6, 0, rel.Int(100)) // id 7 -> 100
	p.SetCol(6, 2, rel.Float(-5))
	for _, preds := range [][]rel.ColPred{lt(0, rel.Int(1)), gt(0, rel.Int(7)), lt(2, rel.Float(0))} {
		if p.Prunes(preds) {
			t.Fatalf("%+v pruned a value once stored in the page", preds)
		}
	}
	if !p.Prunes(gt(0, rel.Int(100))) || !p.Prunes(lt(2, rel.Float(-5))) {
		t.Fatal("zone grew past the values stored")
	}

	q, err := Deserialize(p.Schema(), p.Cap(), p.Serialize(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Prunes(lt(0, rel.Int(1))) || q.Prunes(lt(0, rel.Int(2))) || q.Prunes(gt(0, rel.Int(99))) {
		t.Fatal("a deserialized page's zone is not its stored ids' [1,100]")
	}
	v, err := View(p.Schema(), p.Serialize(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v.Prunes(gt(0, rel.Int(1000))) {
		t.Fatal("a view page pruned")
	}
}

// FuzzZonePrune checks the one zone rule against FilterFixed: whenever a
// zone prunes a predicate, FilterFixed selects no row the zone covers.
// Three zones are tried over the same values — a hot page's (widened by
// inserts, then an in-place update and maybe a delete), the one
// Deserialize rebuilds, and a cold block's (seeded by its first row).
func FuzzZonePrune(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(int64(1), int64(1), int64(1), 1.0, 1.0, nan, uint8(rel.CmpNe)|16, int64(0), 1.0)
	f.Add(int64(0), int64(5), int64(9), nan, 1.0, 1.0, uint8(rel.CmpNe)|16, int64(0), 1.0)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(0), inf, -inf, negZero, uint8(rel.CmpGe), int64(math.MaxInt64), 0.0)
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64), negZero, negZero, negZero, uint8(rel.CmpNe), int64(math.MaxInt64), 0.0)
	f.Add(int64(math.MinInt64), int64(-1), int64(1), negZero, 0.0, inf, uint8(rel.CmpLt)|16, int64(0), 0.0)
	f.Add(int64(-3), int64(3), int64(0), -inf, inf, nan, uint8(rel.CmpGt)|16, int64(0), inf)
	f.Add(int64(7), int64(8), int64(9), 1.0, 2.0, 3.0, uint8(rel.CmpEq)|32, int64(8), 2.0)
	f.Add(int64(7), int64(8), int64(9), nan, nan, nan, uint8(rel.CmpLe)|16|64, int64(8), nan)
	f.Fuzz(func(t *testing.T, a, b, c int64, x, y, z float64, op uint8, pi int64, pf float64) {
		// op: low 3 bits the operator, bit 4 the float column, bit 5 a
		// value of the other column's kind, bit 6 deletes row 0.
		pred := rel.ColPred{Col: 0, Op: rel.CmpOp(op&7) % 6, Val: rel.Int(pi)}
		if op&16 != 0 {
			pred.Col, pred.Val = 2, rel.Float(pf)
		}
		if op&32 != 0 {
			if pred.Val.Kind == rel.TInt64 {
				pred.Val = rel.Float(pf)
			} else {
				pred.Val = rel.Int(pi)
			}
		}
		preds := []rel.ColPred{pred}

		p := NewPage(filterSchema(), 4)
		for _, r := range []rel.Row{{rel.Int(a), rel.Str(""), rel.Float(x)}, {rel.Int(b), rel.Str(""), rel.Float(y)}} {
			if _, err := p.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		p.SetCol(1, 0, rel.Int(c))
		p.SetCol(1, 2, rel.Float(z))
		if op&64 != 0 {
			if err := p.Delete(0); err != nil {
				t.Fatal(err)
			}
		}
		selects := func(what string, prunes bool) {
			if !prunes {
				return
			}
			sel := MakeSel(p.Len()).Reset(p.Len())
			if err := p.FilterFixed(preds, sel); err != nil {
				t.Fatal(err)
			}
			if n := sel.Count(); n != 0 {
				t.Fatalf("%s zone prunes %+v, yet FilterFixed selects %d of rows %v", what, pred, n, rowsOf(p))
			}
		}
		selects("page", p.Prunes(preds))
		q, err := Deserialize(p.Schema(), p.Cap(), p.Serialize(nil))
		if err != nil {
			t.Fatal(err)
		}
		selects("deserialized", q.Prunes(preds))
		var block []Zone
		for _, col := range []int{0, 2} {
			v := RawBits(p.Col(0, col))
			zn := Zone{Col: uint16(col), Kind: p.Schema().Cols[col].Type, Min: v, Max: v}
			for i := 1; i < p.Len(); i++ {
				v := RawBits(p.Col(i, col))
				zn.Widen(v, v)
			}
			block = append(block, zn)
		}
		selects("block", ZonesPrune(block, preds))
	})
}

func rowsOf(p *Page) []rel.Row {
	out := make([]rel.Row, p.Len())
	for i := range out {
		out[i] = p.Row(i)
	}
	return out
}
