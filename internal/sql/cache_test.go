package sql

import (
	"fmt"
	"reflect"
	"testing"

	"phoebedb/internal/rel"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		src    string
		key    string
		params []rel.Value
		ok     bool
	}{
		{
			src:    "SELECT a, b FROM t WHERE a = 1 AND b = 'x'",
			key:    "select a , b from t where a = ? and b = ? ",
			params: []rel.Value{rel.Int(1), rel.Str("x")},
			ok:     true,
		},
		{
			// Literal values never affect the key: same shape, same key.
			src:    "select a,b from t where a=42 and b='other'",
			key:    "select a , b from t where a = ? and b = ? ",
			params: []rel.Value{rel.Int(42), rel.Str("other")},
			ok:     true,
		},
		{
			// LIMIT counts stay verbatim — they are part of the plan.
			src:    "SELECT * FROM t LIMIT 10",
			key:    "select * from t limit 10 ",
			params: nil,
			ok:     true,
		},
		{
			src:    "INSERT INTO t VALUES (-5, 2.5, 'it''s')",
			key:    "insert into t values ( ? , ? , ? ) ",
			params: []rel.Value{rel.Int(-5), rel.Float(2.5), rel.Str("it's")},
			ok:     true,
		},
		{src: "CREATE TABLE t (a INT)", ok: false},          // DDL bypasses the cache
		{src: "SELECT * FROM t WHERE a = ?", ok: false},     // raw placeholder
		{src: "SELECT * FROM t WHERE a = 'oops", ok: false}, // unterminated
	}
	for _, tc := range cases {
		key, params, ok := normalize(tc.src, new(Scratch))
		if ok != tc.ok {
			t.Errorf("%q: ok=%v want %v", tc.src, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if string(key) != tc.key {
			t.Errorf("%q: key=%q want %q", tc.src, key, tc.key)
		}
		if len(params) == 0 {
			params = nil
		}
		if !reflect.DeepEqual(params, tc.params) {
			t.Errorf("%q: params=%v want %v", tc.src, params, tc.params)
		}
	}
}

// bindStmt substitutes params into cs's template the way ExecPreparedInto
// does, boxed back into a Stmt for comparison with the parser's output.
func bindStmt(cs *CachedStmt, sc *Scratch, params []rel.Value) (Stmt, error) {
	if len(params) != cs.nParams {
		return nil, fmt.Errorf("template wants %d parameters, got %d", cs.nParams, len(params))
	}
	switch s := cs.tmpl.(type) {
	case InsertStmt:
		s.Rows = sc.bindRows(s.Rows, params)
		return s, nil
	case SelectStmt:
		s.Where = sc.bindConds(s.Where, params)
		return s, nil
	case UpdateStmt:
		s.Set = sc.bindSet(s.Set, params)
		s.Where = sc.bindConds(s.Where, params)
		return s, nil
	case DeleteStmt:
		s.Where = sc.bindConds(s.Where, params)
		return s, nil
	}
	return nil, ErrUnsupported
}

// Binding the cached template with the extracted literals must reproduce
// exactly what Parse builds from the original text.
func TestPrepareBindEquivalence(t *testing.T) {
	corpus := []string{
		"SELECT a, b FROM t WHERE a = 1 AND b = 'x'",
		"SELECT * FROM t WHERE b = 'quoted ''str''' LIMIT 3",
		"INSERT INTO t VALUES (1, 'x', 2.5), (-2, 'y', 3.5)",
		"UPDATE t SET c = 9.5, b = 'z' WHERE a = 1",
		"DELETE FROM t WHERE a = -7",
		"SELECT * FROM t",
	}
	c := NewPlanCache(16)
	var sc Scratch
	for _, src := range corpus {
		want, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		cs, params, ok := c.Prepare(src, &sc)
		if !ok {
			t.Fatalf("Prepare(%q): uncacheable", src)
		}
		got, err := bindStmt(cs, &sc, params)
		if err != nil {
			t.Fatalf("bind(%q): %v", src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n bound: %#v\nparsed: %#v", src, got, want)
		}
	}
	if c.Hits() != 0 || c.Misses() != int64(len(corpus)) {
		t.Fatalf("hits=%d misses=%d after cold corpus", c.Hits(), c.Misses())
	}
	// Second pass with different literals: every statement hits.
	for _, src := range []string{
		"SELECT a, b FROM t WHERE a = 99 AND b = 'w'",
		"DELETE FROM t WHERE a = 123",
	} {
		want, _ := Parse(src)
		cs, params, ok := c.Prepare(src, &sc)
		if !ok {
			t.Fatalf("Prepare(%q): uncacheable", src)
		}
		got, err := bindStmt(cs, &sc, params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rebind %q: got %#v want %#v", src, got, want)
		}
	}
	if c.Hits() != 2 {
		t.Fatalf("hits=%d after warm pass, want 2", c.Hits())
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	stmts := []string{
		"SELECT * FROM a WHERE x = 1",
		"SELECT * FROM b WHERE x = 1",
		"SELECT * FROM c WHERE x = 1",
	}
	for _, s := range stmts {
		if _, _, ok := c.Prepare(s, new(Scratch)); !ok {
			t.Fatalf("Prepare(%q) failed", s)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	// The oldest shape (table a) was evicted: preparing it again misses.
	misses := c.Misses()
	if _, _, ok := c.Prepare(stmts[0], new(Scratch)); !ok {
		t.Fatal("re-prepare failed")
	}
	if c.Misses() != misses+1 {
		t.Fatal("evicted entry did not miss")
	}
	// Table c is still resident: hits.
	hits := c.Hits()
	if _, _, ok := c.Prepare(stmts[2], new(Scratch)); !ok {
		t.Fatal("re-prepare failed")
	}
	if c.Hits() != hits+1 {
		t.Fatal("resident entry did not hit")
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len=%d after Invalidate, want 0", c.Len())
	}
}

// The cached plan hint must rebuild the same access path planWhere picks
// from scratch, for fresh literals bound into the same statement shape.
func TestPlanHintRebuild(t *testing.T) {
	schema := rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "city", Type: rel.TString},
		rel.Column{Name: "score", Type: rel.TFloat64},
	)
	indexes := []IndexMeta{
		{Name: "pk", Cols: []int{0}, Unique: true},
		{Name: "city_score", Cols: []int{1, 2}},
	}
	wheres := [][]Cond{
		{{Col: "id", Val: rel.Int(1)}},
		{{Col: "city", Val: rel.Str("x")}, {Col: "score", Val: rel.Int(7)}}, // int→float coercion
		{{Col: "score", Val: rel.Float(1.5)}},                               // residual-only full scan
		{{Col: "city", Val: rel.Str("x")}, {Col: "id", Val: rel.Int(2)}},
	}
	for _, where := range wheres {
		want, hint, err := planWhereHint(schema, indexes, where)
		if err != nil {
			t.Fatal(err)
		}
		// Rebind with shifted literals of the same kinds.
		rebound := make([]Cond, len(where))
		for i, c := range where {
			v := c.Val
			switch v.Kind {
			case rel.TInt64:
				v = rel.Int(v.I + 100)
			case rel.TFloat64:
				v = rel.Float(v.F + 100)
			case rel.TString:
				v = rel.Str(v.S + "!")
			}
			rebound[i] = Cond{Col: c.Col, Val: v}
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
			t.Errorf("where=%v: rebuilt %+v, fresh %+v (template plan %+v)", where, got, fresh, want)
		}
	}
	// A type mismatch at rebind is a real error, not a silent fallback.
	_, hint, err := planWhereHint(schema, indexes, wheres[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hint.rebuild(schema, []Cond{{Col: "id", Val: rel.Str("nope")}}, new(Scratch)); err == nil {
		t.Fatal("mistyped rebind accepted")
	}
}
