package core

import (
	"slices"
	"testing"

	"phoebedb/internal/rel"
)

// TestNestedScanIndex runs a ScanIndex inside another ScanIndex's callback,
// as a join's index nested loop does: both scans must return the rows two
// separate scans return, the inner one must leave the row the outer
// callback holds as it was, and in steady state the nested scans must
// reuse their scratch rather than allocate it per call.
func TestNestedScanIndex(t *testing.T) {
	e := openTestEngine(t, Config{})
	setupAccounts(t, e)
	w := begin(e, 0)
	for i := 1; i <= 12; i++ {
		owner := "alice"
		if i%3 == 0 {
			owner = "bob"
		}
		if _, err := w.Insert("accounts", acct(i, owner, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Mgr.RefreshWatermark()

	tx := begin(e, 1)
	defer tx.Rollback()
	collect := func(index string, key rel.Value) []rel.Row {
		var rows []rel.Row
		if err := tx.ScanIndex("accounts", index, []rel.Value{key}, func(_ rel.RowID, row rel.Row) bool {
			rows = append(rows, row.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	alices, bobs := collect("accounts_owner", rel.Str("alice")), collect("accounts_owner", rel.Str("bob"))
	if len(alices) != 8 || len(bobs) != 4 {
		t.Fatalf("separate scans returned %d and %d rows, want 8 and 4", len(alices), len(bobs))
	}

	// Outer prefix scan; inner prefix scan and inner unique point lookup.
	for _, inner := range []struct {
		index string
		key   func(outer rel.Row) rel.Value
		want  func(outer rel.Row) []rel.Row
	}{
		{"accounts_owner", func(rel.Row) rel.Value { return rel.Str("bob") }, func(rel.Row) []rel.Row { return bobs }},
		{"accounts_pk", func(o rel.Row) rel.Value { return o[0] }, func(o rel.Row) []rel.Row { return []rel.Row{o.Clone()} }},
	} {
		var outers []rel.Row
		key := make([]rel.Value, 1)
		err := tx.ScanIndex("accounts", "accounts_owner", []rel.Value{rel.Str("alice")}, func(_ rel.RowID, orow rel.Row) bool {
			before := orow.Clone()
			want := inner.want(before)
			key[0] = inner.key(orow)
			var got []rel.Row
			if err := tx.ScanIndex("accounts", inner.index, key, func(_ rel.RowID, row rel.Row) bool {
				got = append(got, row.Clone())
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(got, want) {
				t.Errorf("%s inside a scan returned %v, want %v", inner.index, got, want)
			}
			if !rowsEqual([]rel.Row{orow}, []rel.Row{before}) {
				t.Errorf("%s inside a scan overwrote the outer row: %v, was %v", inner.index, orow, before)
			}
			outers = append(outers, orow.Clone())
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(outers, alices) {
			t.Errorf("outer scan around %s returned %v, want %v", inner.index, outers, alices)
		}
	}

	// A unique point lookup around another: the outer row must survive.
	err := tx.ScanIndex("accounts", "accounts_pk", []rel.Value{rel.Int(3)}, func(_ rel.RowID, orow rel.Row) bool {
		if err := tx.ScanIndex("accounts", "accounts_pk", []rel.Value{rel.Int(4)}, func(_ rel.RowID, row rel.Row) bool {
			if row[0].I != 4 {
				t.Errorf("inner point lookup returned %v", row)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if orow[0].I != 3 || orow[1].S != "bob" {
			t.Errorf("inner point lookup overwrote the outer row: %v", orow)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	// Steady state: 16 nested scans per run reuse the depth-1 frame.
	key := make([]rel.Value, 1)
	probe := func(_ rel.RowID, row rel.Row) bool { return true }
	outer := func(_ rel.RowID, orow rel.Row) bool {
		key[0] = orow[0]
		if err := tx.ScanIndex("accounts", "accounts_pk", key, probe); err != nil {
			t.Fatal(err)
		}
		if err := tx.ScanIndex("accounts", "accounts_owner", []rel.Value{rel.Str("bob")}, probe); err != nil {
			t.Fatal(err)
		}
		return true
	}
	okey := []rel.Value{rel.Str("alice")}
	run := func() {
		if err := tx.ScanIndex("accounts", "accounts_owner", okey, outer); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs >= 1 {
		t.Errorf("an index scan with 16 nested scans allocates %.1f objects per run, want 0", allocs)
	}
}

func rowsEqual(a, b []rel.Row) bool {
	return slices.EqualFunc(a, b, func(x, y rel.Row) bool { return slices.EqualFunc(x, y, rel.Value.Equal) })
}
