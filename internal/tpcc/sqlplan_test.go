package tpcc_test

import (
	"fmt"
	"strings"
	"testing"

	"phoebedb/internal/adapter"
)

// TestStockLevelSQLPlan pins the plan of the Stock-Level join as a SQL
// client sends it: an index nested loop probing stock_pk with the bound
// warehouse and each order line's item, not a hash build over every stock
// row of the warehouse. Its rows must match a lookup of each line's stock.
func TestStockLevelSQLPlan(t *testing.T) {
	b := phoebeBackend(t)
	loadSmall(t, b, 1)
	db := b.(adapter.Phoebe).DB
	res, err := db.ExecSQL("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("district: %v, %v", res.Rows, err)
	}
	next := res.Rows[0][0].I
	const thresh = 60 // high enough that most items qualify
	q := fmt.Sprintf("SELECT ol_i_id FROM order_line JOIN stock ON ol_i_id = s_i_id WHERE ol_w_id = 1 "+
		"AND ol_d_id = 1 AND ol_o_id >= %d AND ol_o_id < %d AND s_w_id = 1 AND s_quantity < %d", next-20, next, thresh)

	plan, err := db.ExecSQL("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range plan.Rows {
		lines = append(lines, strings.TrimSpace(r[0].S))
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"-> IndexNestedLoop Join (ol_i_id = s_i_id)",
		"-> Index Range Scan using order_line_pk on order_line",
		"-> Index Scan using stock_pk on stock",
		"Index Cond: s_w_id = 1 AND s_i_id = order_line.ol_i_id",
		fmt.Sprintf("Filter: s_quantity < %d", thresh),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan lacks %q:\n%s", want, text)
		}
	}

	got, err := db.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	lineItems, err := db.ExecSQL(fmt.Sprintf("SELECT ol_i_id FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 1 "+
		"AND ol_o_id >= %d AND ol_o_id < %d", next-20, next))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range lineItems.Rows {
		st, err := db.ExecSQL(fmt.Sprintf("SELECT s_quantity FROM stock WHERE s_w_id = 1 AND s_i_id = %d", r[0].I))
		if err != nil || len(st.Rows) != 1 {
			t.Fatalf("stock of item %d: %v, %v", r[0].I, st.Rows, err)
		}
		if st.Rows[0][0].I < thresh {
			want++
		}
	}
	if len(got.Rows) != want || want == 0 {
		t.Errorf("the join returned %d rows, the per-line lookups %d", len(got.Rows), want)
	}
}
