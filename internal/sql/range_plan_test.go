package sql

import (
	"reflect"
	"testing"

	"phoebedb/internal/rel"
)

func rangeSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "city", Type: rel.TString},
		rel.Column{Name: "score", Type: rel.TFloat64},
	)
}

// Range conditions on one column must intersect, not last-wins like
// equality: x > 5 AND x < 10 is an interval, and contradictory bounds are
// a provably empty plan, not a scan of the later bound.
func TestResolveWhereRangeIntersection(t *testing.T) {
	schema := rangeSchema()
	cases := []struct {
		name  string
		where []Cond
		empty bool
		// surviving bounds on id (lo/hi value + inclusivity); ignored when
		// empty or when noRange.
		hasLo, hasHi   bool
		lo, hi         int64
		loIncl, hiIncl bool
	}{
		{
			name:  "interval kept",
			where: []Cond{{Col: "id", Op: rel.CmpGt, Val: rel.Int(5)}, {Col: "id", Op: rel.CmpLt, Val: rel.Int(10)}},
			hasLo: true, hasHi: true, lo: 5, hi: 10,
		},
		{
			name:  "contradiction is empty",
			where: []Cond{{Col: "id", Op: rel.CmpGt, Val: rel.Int(10)}, {Col: "id", Op: rel.CmpLt, Val: rel.Int(5)}},
			empty: true,
		},
		{
			name:  "touching exclusive bounds empty",
			where: []Cond{{Col: "id", Op: rel.CmpGe, Val: rel.Int(7)}, {Col: "id", Op: rel.CmpLt, Val: rel.Int(7)}},
			empty: true,
		},
		{
			name:  "single point survives",
			where: []Cond{{Col: "id", Op: rel.CmpGe, Val: rel.Int(7)}, {Col: "id", Op: rel.CmpLe, Val: rel.Int(7)}},
			hasLo: true, hasHi: true, lo: 7, hi: 7, loIncl: true, hiIncl: true,
		},
		{
			name: "tighter lo wins",
			where: []Cond{
				{Col: "id", Op: rel.CmpGt, Val: rel.Int(3)},
				{Col: "id", Op: rel.CmpGe, Val: rel.Int(8)},
				{Col: "id", Op: rel.CmpLe, Val: rel.Int(20)},
			},
			hasLo: true, hasHi: true, lo: 8, hi: 20, loIncl: true, hiIncl: true,
		},
		{
			name: "exclusive beats inclusive on tie",
			where: []Cond{
				{Col: "id", Op: rel.CmpGe, Val: rel.Int(5)},
				{Col: "id", Op: rel.CmpGt, Val: rel.Int(5)},
			},
			hasLo: true, lo: 5, loIncl: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rw, err := resolveWhere(schema, tc.where)
			if err != nil {
				t.Fatal(err)
			}
			if rw.empty != tc.empty {
				t.Fatalf("empty=%v, want %v", rw.empty, tc.empty)
			}
			if tc.empty {
				return
			}
			if len(rw.ranges) != 1 {
				t.Fatalf("ranges=%d, want 1", len(rw.ranges))
			}
			rr := rw.ranges[0]
			if rr.lo.set != tc.hasLo || rr.hi.set != tc.hasHi {
				t.Fatalf("bounds set lo=%v hi=%v, want %v/%v", rr.lo.set, rr.hi.set, tc.hasLo, tc.hasHi)
			}
			if tc.hasLo && (rr.lo.val.I != tc.lo || rr.lo.incl != tc.loIncl) {
				t.Errorf("lo = %v incl=%v, want %d incl=%v", rr.lo.val, rr.lo.incl, tc.lo, tc.loIncl)
			}
			if tc.hasHi && (rr.hi.val.I != tc.hi || rr.hi.incl != tc.hiIncl) {
				t.Errorf("hi = %v incl=%v, want %d incl=%v", rr.hi.val, rr.hi.incl, tc.hi, tc.hiIncl)
			}
		})
	}
}

// An equality on a ranged column either pins the value inside the range
// (equality subsumes) or contradicts it (empty).
func TestResolveWhereEqRangeMix(t *testing.T) {
	schema := rangeSchema()
	inside := []Cond{
		{Col: "id", Op: rel.CmpGt, Val: rel.Int(3)},
		{Col: "id", Op: rel.CmpEq, Val: rel.Int(5)},
	}
	rw, err := resolveWhere(schema, inside)
	if err != nil {
		t.Fatal(err)
	}
	if rw.empty {
		t.Fatal("eq inside range reported empty")
	}
	if len(rw.ranges) != 0 {
		t.Fatalf("range survived eq subsumption: %+v", rw.ranges)
	}
	if rw.stable {
		t.Fatal("eq+range mix must be unstable (value-dependent)")
	}
	outside := []Cond{
		{Col: "id", Op: rel.CmpGt, Val: rel.Int(3)},
		{Col: "id", Op: rel.CmpEq, Val: rel.Int(3)},
	}
	rw, err = resolveWhere(schema, outside)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.empty {
		t.Fatal("eq on excluded bound not reported empty")
	}
}

// Range plans: a range on the column after the equality prefix becomes
// scan bounds; ranges elsewhere stay residual; contradictions plan empty.
func TestPlanWhereRange(t *testing.T) {
	schema := rangeSchema()
	indexes := []IndexMeta{
		{Name: "pk", Cols: []int{0}, Unique: true},
		{Name: "city_score", Cols: []int{1, 2}},
	}
	t.Run("range on pk", func(t *testing.T) {
		p, err := planWhere(schema, indexes, []Cond{
			{Col: "id", Op: rel.CmpGe, Val: rel.Int(10)},
			{Col: "id", Op: rel.CmpLt, Val: rel.Int(20)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.index != "pk" || !p.hasLo || !p.hasHi || !p.loIncl || p.hiIncl {
			t.Fatalf("plan = %+v, want pk range [10,20)", p)
		}
		if len(p.residual) != 0 {
			t.Fatalf("range left residual: %+v", p.residual)
		}
	})
	t.Run("eq prefix plus range suffix", func(t *testing.T) {
		p, err := planWhere(schema, indexes, []Cond{
			{Col: "city", Op: rel.CmpEq, Val: rel.Str("x")},
			{Col: "score", Op: rel.CmpGt, Val: rel.Int(5)}, // int→float coercion
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.index != "city_score" || len(p.prefixVals) != 1 || !p.hasLo || p.hasHi {
			t.Fatalf("plan = %+v, want city_score prefix+lo", p)
		}
		if p.lo.Kind != rel.TFloat64 || p.lo.F != 5 {
			t.Fatalf("lo = %+v, want float 5", p.lo)
		}
	})
	t.Run("range off index is residual", func(t *testing.T) {
		p, err := planWhere(schema, indexes, []Cond{
			{Col: "id", Op: rel.CmpEq, Val: rel.Int(1)},
			{Col: "score", Op: rel.CmpLt, Val: rel.Float(2.5)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.index != "pk" || p.hasRange() {
			t.Fatalf("plan = %+v, want pk point lookup", p)
		}
		if len(p.residual) != 1 || p.residual[0].Op != rel.CmpLt {
			t.Fatalf("residual = %+v, want score < 2.5", p.residual)
		}
	})
	t.Run("contradiction plans empty", func(t *testing.T) {
		p, err := planWhere(schema, indexes, []Cond{
			{Col: "score", Op: rel.CmpGt, Val: rel.Float(9)},
			{Col: "score", Op: rel.CmpLt, Val: rel.Float(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !p.empty {
			t.Fatalf("plan = %+v, want empty", p)
		}
	})
}

// A cached BETWEEN statement must rebind fresh bounds into the same range
// scan, and a rebind to an empty interval must yield an empty plan.
func TestPlanHintRangeRebind(t *testing.T) {
	schema := rangeSchema()
	indexes := []IndexMeta{{Name: "pk", Cols: []int{0}, Unique: true}}
	stmt, err := Parse("SELECT * FROM t WHERE id BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	where := stmt.(SelectStmt).Where
	p, hint, err := planWhereHint(schema, indexes, where)
	if err != nil {
		t.Fatal(err)
	}
	if hint == nil {
		t.Fatal("single-bound BETWEEN must produce a cacheable hint")
	}
	if p.index != "pk" || !p.hasLo || !p.hasHi || !p.loIncl || !p.hiIncl {
		t.Fatalf("plan = %+v, want pk range [10,20]", p)
	}
	// Rebind with shifted literals: same access path, new bounds.
	rebound := []Cond{
		{Col: "id", Op: rel.CmpGe, Val: rel.Int(100)},
		{Col: "id", Op: rel.CmpLe, Val: rel.Int(200)},
	}
	got, ok, err := hint.rebuild(schema, rebound, new(Scratch))
	if err != nil || !ok {
		t.Fatalf("rebuild: ok=%v err=%v", ok, err)
	}
	fresh, err := planWhere(schema, indexes, rebound)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("rebuilt %+v, fresh %+v", got, fresh)
	}
	if got.index != "pk" || !got.hasLo || got.lo.I != 100 || got.hi.I != 200 {
		t.Errorf("rebound plan lost the range: %+v", got)
	}
	// Rebind to a contradiction: the hint must re-check and plan empty.
	flipped := []Cond{
		{Col: "id", Op: rel.CmpGe, Val: rel.Int(200)},
		{Col: "id", Op: rel.CmpLe, Val: rel.Int(100)},
	}
	got, ok, err = hint.rebuild(schema, flipped, new(Scratch))
	if err != nil || !ok {
		t.Fatalf("rebuild flipped: ok=%v err=%v", ok, err)
	}
	if !got.empty {
		t.Errorf("flipped interval not empty: %+v", got)
	}
}

// Doubled bounds on one side resolve per execution (no cached hint): the
// winner depends on literal values, which the hint cannot replay.
func TestPlanHintUnstableRanges(t *testing.T) {
	schema := rangeSchema()
	indexes := []IndexMeta{{Name: "pk", Cols: []int{0}, Unique: true}}
	_, hint, err := planWhereHint(schema, indexes, []Cond{
		{Col: "id", Op: rel.CmpGt, Val: rel.Int(3)},
		{Col: "id", Op: rel.CmpGt, Val: rel.Int(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hint != nil {
		t.Fatal("doubled lo bound produced a cacheable hint")
	}
}
