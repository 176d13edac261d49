package client

import (
	"math/rand"
	"strconv"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/wire"
)

// render is what a Result holds for a value, spelled independently of
// decodeRows.
func render(v rel.Value) string {
	switch v.Kind {
	case rel.TInt64:
		return strconv.FormatInt(v.I, 10)
	case rel.TFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	return v.S
}

func randomResult(r *rand.Rand) ([]string, []rel.Row) {
	ncols := 1 + r.Intn(5)
	cols := make([]string, ncols)
	for i := range cols {
		cols[i] = "c" + strconv.Itoa(r.Intn(4)) + "_" + strconv.Itoa(i)
	}
	rows := make([]rel.Row, r.Intn(200)) // past 127 the row count takes two bytes
	for i := range rows {
		row := make(rel.Row, ncols)
		for j := range row {
			switch r.Intn(3) {
			case 0:
				row[j] = rel.Int(r.Int63() - r.Int63())
			case 1:
				row[j] = rel.Float(r.NormFloat64() * 1e6)
			default:
				row[j] = rel.Str(string(make([]byte, r.Intn(8))) + strconv.Itoa(r.Intn(1000)))
			}
		}
		rows[i] = row
	}
	return cols, rows
}

// decodeRows (frame straight to strings, buffers reused across frames) must
// agree with the reference decoder wire.DecodeRows on every result, and a
// Result must not change when the connection decodes the next frame.
func TestDecodeRowsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := &Conn{}
	type kept struct {
		res  Result
		cols []string
		rows []rel.Row
	}
	var all []kept
	for i := 0; i < 300; i++ {
		cols, rows := randomResult(r)
		frame, ok := wire.AppendRows(nil, cols, rows)
		if !ok {
			t.Fatal("AppendRows refused a small result")
		}
		f, _, err := wire.ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		refCols, refRows, err := wire.DecodeRows(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.decodeRows(f.Body)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		all = append(all, kept{res, refCols, refRows})
	}
	for i, k := range all {
		if len(k.res.Columns) != len(k.cols) || len(k.res.Rows) != len(k.rows) {
			t.Fatalf("result %d: %d columns %d rows, want %d and %d", i, len(k.res.Columns), len(k.res.Rows), len(k.cols), len(k.rows))
		}
		for j := range k.cols {
			if k.res.Columns[j] != k.cols[j] {
				t.Fatalf("result %d column %d = %q, want %q", i, j, k.res.Columns[j], k.cols[j])
			}
		}
		for ri, row := range k.rows {
			for j, v := range row {
				if got := k.res.Rows[ri][j]; got != render(v) {
					t.Fatalf("result %d row %d col %d = %q, want %q", i, ri, j, got, render(v))
				}
			}
		}
	}
}

// Every truncation and every single-byte corruption of a Rows body is
// either decoded or refused — never a panic, never an out-of-range read.
func TestDecodeRowsMalformed(t *testing.T) {
	cols, rows := randomResult(rand.New(rand.NewSource(7)))
	frame, _ := wire.AppendRows(nil, cols, rows[:min(len(rows), 6)])
	f, _, _ := wire.ParseFrame(frame)
	c := &Conn{}
	for n := 0; n < len(f.Body); n++ {
		if _, err := c.decodeRows(f.Body[:n]); err == nil && n < len(f.Body) {
			// A shorter body can only decode if it ends on a row boundary
			// with a smaller count — which the count field rules out.
			t.Fatalf("a body cut to %d of %d bytes decoded", n, len(f.Body))
		}
	}
	for i := range f.Body {
		bad := append([]byte(nil), f.Body...)
		bad[i] ^= 0xff
		c.decodeRows(bad)
	}
}
