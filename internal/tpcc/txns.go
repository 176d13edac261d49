package tpcc

import (
	"errors"
	"fmt"
	"sort"

	"phoebedb/internal/rel"
)

// ErrRollback marks the intentional 1 % New-Order user abort (TPC-C clause
// 2.4.1.4): the driver rolls the transaction back and counts it separately
// from failures.
var ErrRollback = errors.New("tpcc: intentional user rollback")

// errNotFound wraps unexpected missing rows in transaction logic.
func errNotFound(what string, args ...interface{}) error {
	return fmt.Errorf("tpcc: %s not found", fmt.Sprintf(what, args...))
}

// NewOrder executes the New-Order transaction (clause 2.4) for warehouse
// wID. Returns ErrRollback for the spec-mandated 1 % invalid-item aborts.
func NewOrder(c Client, r *rng, s Scale, wID int64) error {
	dID := r.uniform(1, int64(s.DistrictsPerWH))
	cID := r.customerID(int64(s.CustomersPerDistrict))

	_, wRow, ok, err := c.GetByIndex("warehouse", "warehouse_pk", rel.Int(wID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("warehouse %d", wID)
	}
	wTax := wRow[WTax].F // borrowed row: extract before the next operation
	dRID, dRow, ok, err := c.GetByIndex("district", "district_pk", rel.Int(wID), rel.Int(dID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("district %d/%d", wID, dID)
	}
	dTax := dRow[DTax].F
	// Atomically claim the next order id (UPDATE ... RETURNING semantics).
	newDRow, err := c.Modify("district", dRID, func(cur rel.Row) (map[string]rel.Value, error) {
		return map[string]rel.Value{"d_next_o_id": rel.Int(cur[DNextOID].I + 1)}, nil
	})
	if err != nil {
		return err
	}
	oID := newDRow[DNextOID].I - 1
	_, cRow, ok, err := c.GetByIndex("customer", "customer_pk", rel.Int(wID), rel.Int(dID), rel.Int(cID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("customer %d/%d/%d", wID, dID, cID)
	}
	cDiscount := cRow[CDiscount].F

	olCnt := r.uniform(5, 15)
	allLocal := int64(1)
	rollbackLast := r.Intn(100) == 0 // 1 % invalid item on the last line

	if _, err := c.Insert("orders", rel.Row{
		rel.Int(oID), rel.Int(dID), rel.Int(wID), rel.Int(cID),
		rel.Int(1), rel.Int(0), rel.Int(olCnt), rel.Int(allLocal),
	}); err != nil {
		return err
	}
	if _, err := c.Insert("new_order", rel.Row{rel.Int(oID), rel.Int(dID), rel.Int(wID)}); err != nil {
		return err
	}

	// Draw every line first, then take the stock tuple locks in one global
	// order, (supply_w, i_id): two terminals locking in generated order
	// form real lock cycles that only LockTimeout breaks. Each line keeps
	// its generated ol_number. The invalid item of the abort path takes no
	// lock and stays last, after all the other lines' work.
	type orderLine struct {
		number, iID, supplyW, quantity int64
	}
	lines := make([]orderLine, olCnt)
	for i := range lines {
		l := &lines[i]
		l.number = int64(i) + 1
		l.iID = r.itemID(int64(s.Items))
		if rollbackLast && l.number == olCnt {
			l.iID = int64(s.Items) + 777777 // unused item id -> abort
		}
		l.supplyW = wID
		if s.Warehouses > 1 && r.Intn(100) == 0 {
			// 1 % remote order line.
			for l.supplyW == wID {
				l.supplyW = r.uniform(1, int64(s.Warehouses))
			}
			allLocal = 0
		}
		l.quantity = r.uniform(1, 10)
	}
	valid := lines
	if rollbackLast {
		valid = lines[:olCnt-1]
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].supplyW != valid[j].supplyW {
			return valid[i].supplyW < valid[j].supplyW
		}
		return valid[i].iID < valid[j].iID
	})

	var total float64
	for _, l := range lines {
		iID, supplyW, quantity := l.iID, l.supplyW, l.quantity

		_, iRow, ok, err := c.GetByIndex("item", "item_pk", rel.Int(iID))
		if err != nil {
			return err
		}
		if !ok {
			return ErrRollback // the intentional abort path
		}
		iPrice := iRow[IPrice].F
		sRID, _, ok, err := c.GetByIndex("stock", "stock_pk", rel.Int(supplyW), rel.Int(iID))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("stock %d/%d", supplyW, iID)
		}
		remote := supplyW != wID
		sRow, err := c.Modify("stock", sRID, func(cur rel.Row) (map[string]rel.Value, error) {
			qty := cur[SQuantity].I
			if qty >= quantity+10 {
				qty -= quantity
			} else {
				qty = qty - quantity + 91
			}
			set := map[string]rel.Value{
				"s_quantity":  rel.Int(qty),
				"s_ytd":       rel.Int(cur[SYtd].I + quantity),
				"s_order_cnt": rel.Int(cur[SOrderCnt].I + 1),
			}
			if remote {
				set["s_remote_cnt"] = rel.Int(cur[SRemoteCnt].I + 1)
			}
			return set, nil
		})
		if err != nil {
			return err
		}
		amount := float64(quantity) * iPrice
		total += amount
		if _, err := c.Insert("order_line", rel.Row{
			rel.Int(oID), rel.Int(dID), rel.Int(wID), rel.Int(l.number),
			rel.Int(iID), rel.Int(supplyW), rel.Int(0),
			rel.Int(quantity), rel.Float(amount), rel.Str(sRow[SDist].S),
		}); err != nil {
			return err
		}
	}
	// The computed order total (with taxes and discount) is returned to
	// the terminal in real TPC-C; computing it exercises the same reads.
	total = total * (1 - cDiscount) * (1 + wTax + dTax)
	_ = total
	return nil
}

// findCustomer resolves a customer by id (40 %) or last name (60 %, picking
// the spec's middle customer ordered by first name). It returns the row_id
// and c_id only: scan rows are borrowed (valid just for the callback), so
// the scalars are extracted inside it.
func findCustomer(c Client, r *rng, s Scale, wID, dID int64) (rel.RowID, int64, error) {
	if r.Intn(100) < 40 {
		cID := r.customerID(int64(s.CustomersPerDistrict))
		rid, _, ok, err := c.GetByIndex("customer", "customer_pk", rel.Int(wID), rel.Int(dID), rel.Int(cID))
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return 0, 0, errNotFound("customer %d/%d/%d", wID, dID, cID)
		}
		return rid, cID, nil
	}
	last := r.lastNameRun(s.MaxLastNames)
	type hit struct {
		rid   rel.RowID
		cID   int64
		first string
	}
	var hits []hit
	err := c.ScanIndex("customer", "customer_name",
		[]rel.Value{rel.Int(wID), rel.Int(dID), rel.Str(last)},
		func(rid rel.RowID, row rel.Row) bool {
			hits = append(hits, hit{rid, row[CID].I, row[CFirst].S})
			return true
		})
	if err != nil {
		return 0, 0, err
	}
	if len(hits) == 0 {
		// Fall back to by-id: small scales can miss a name.
		cID := r.customerID(int64(s.CustomersPerDistrict))
		rid, _, ok, err := c.GetByIndex("customer", "customer_pk", rel.Int(wID), rel.Int(dID), rel.Int(cID))
		if err != nil || !ok {
			return 0, 0, errNotFound("customer by name %q", last)
		}
		return rid, cID, nil
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].first < hits[j].first })
	h := hits[len(hits)/2]
	return h.rid, h.cID, nil
}

// Payment executes the Payment transaction (clause 2.5).
func Payment(c Client, r *rng, s Scale, wID int64) error {
	dID := r.uniform(1, int64(s.DistrictsPerWH))
	amount := float64(r.uniform(100, 500000)) / 100

	// 85 % home district, 15 % remote customer district.
	cWID, cDID := wID, dID
	if s.Warehouses > 1 && r.Intn(100) >= 85 {
		for cWID == wID {
			cWID = r.uniform(1, int64(s.Warehouses))
		}
		cDID = r.uniform(1, int64(s.DistrictsPerWH))
	}

	wRID, _, ok, err := c.GetByIndex("warehouse", "warehouse_pk", rel.Int(wID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("warehouse %d", wID)
	}
	wRow, err := c.Modify("warehouse", wRID, func(cur rel.Row) (map[string]rel.Value, error) {
		return map[string]rel.Value{"w_ytd": rel.Float(cur[WYtd].F + amount)}, nil
	})
	if err != nil {
		return err
	}
	dRID, _, ok, err := c.GetByIndex("district", "district_pk", rel.Int(wID), rel.Int(dID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("district %d/%d", wID, dID)
	}
	dRow, err := c.Modify("district", dRID, func(cur rel.Row) (map[string]rel.Value, error) {
		return map[string]rel.Value{"d_ytd": rel.Float(cur[DYtd].F + amount)}, nil
	})
	if err != nil {
		return err
	}

	cRID, cID, err := findCustomer(c, r, s, cWID, cDID)
	if err != nil {
		return err
	}
	if _, err := c.Modify("customer", cRID, func(cur rel.Row) (map[string]rel.Value, error) {
		set := map[string]rel.Value{
			"c_balance":     rel.Float(cur[CBalance].F - amount),
			"c_ytd_payment": rel.Float(cur[CYtdPayment].F + amount),
			"c_payment_cnt": rel.Int(cur[CPaymentCnt].I + 1),
		}
		if cur[CCredit].S == "BC" {
			// Bad credit: prepend payment info to c_data, capped at 500.
			data := fmt.Sprintf("%d %d %d %d %d %.2f|%s",
				cur[CID].I, cDID, cWID, dID, wID, amount, cur[CData].S)
			if len(data) > 500 {
				data = data[:500]
			}
			set["c_data"] = rel.Str(data)
		}
		return set, nil
	}); err != nil {
		return err
	}
	_, err = c.Insert("history", rel.Row{
		rel.Int(cID), rel.Int(cDID), rel.Int(cWID),
		rel.Int(dID), rel.Int(wID), rel.Int(2), rel.Float(amount),
		rel.Str(wRow[WName].S + "    " + dRow[DName].S),
	})
	return err
}

// OrderStatus executes the Order-Status transaction (clause 2.6).
func OrderStatus(c Client, r *rng, s Scale, wID int64) error {
	dID := r.uniform(1, int64(s.DistrictsPerWH))
	_, cID, err := findCustomer(c, r, s, wID, dID)
	if err != nil {
		return err
	}
	// Latest order of the customer.
	var lastOID int64 = -1
	err = c.ScanIndex("orders", "orders_customer",
		[]rel.Value{rel.Int(wID), rel.Int(dID), rel.Int(cID)},
		func(rid rel.RowID, row rel.Row) bool {
			if row[OID].I > lastOID {
				lastOID = row[OID].I
			}
			return true
		})
	if err != nil {
		return err
	}
	if lastOID < 0 {
		return nil // customer has no orders yet: valid outcome
	}
	// Read its order lines.
	lines := 0
	err = c.ScanIndex("order_line", "order_line_pk",
		[]rel.Value{rel.Int(wID), rel.Int(dID), rel.Int(lastOID)},
		func(rid rel.RowID, row rel.Row) bool {
			lines++
			return true
		})
	if err != nil {
		return err
	}
	if lines == 0 {
		return errNotFound("order lines for order %d/%d/%d", wID, dID, lastOID)
	}
	return nil
}

// Delivery executes the Delivery transaction (clause 2.7): deliver the
// oldest undelivered order of every district of the warehouse.
func Delivery(c Client, r *rng, s Scale, wID int64) error {
	carrier := r.uniform(1, 10)
	for dID := int64(1); dID <= int64(s.DistrictsPerWH); dID++ {
		// Oldest NEW_ORDER: the pk scan is ascending in no_o_id.
		var noRID rel.RowID
		var oID int64 = -1
		err := c.ScanIndex("new_order", "new_order_pk",
			[]rel.Value{rel.Int(wID), rel.Int(dID)},
			func(rid rel.RowID, row rel.Row) bool {
				noRID, oID = rid, row[NOOID].I
				return false
			})
		if err != nil {
			return err
		}
		if oID < 0 {
			continue // district fully delivered: skipped per spec
		}
		if err := c.Delete("new_order", noRID); err != nil {
			// Another terminal delivered this order between our scan and
			// the delete; skip the district.
			continue
		}
		oRID, oRow, ok, err := c.GetByIndex("orders", "orders_pk", rel.Int(wID), rel.Int(dID), rel.Int(oID))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("order %d/%d/%d", wID, dID, oID)
		}
		cID := oRow[OCID].I // borrowed row: extract before the next operation
		if err := c.Update("orders", oRID, map[string]rel.Value{"o_carrier_id": rel.Int(carrier)}); err != nil {
			return err
		}
		// Stamp delivery date on each line, summing the amounts.
		type line struct {
			rid rel.RowID
		}
		var lineRIDs []line
		var total float64
		err = c.ScanIndex("order_line", "order_line_pk",
			[]rel.Value{rel.Int(wID), rel.Int(dID), rel.Int(oID)},
			func(rid rel.RowID, row rel.Row) bool {
				lineRIDs = append(lineRIDs, line{rid})
				total += row[OLAmount].F
				return true
			})
		if err != nil {
			return err
		}
		for _, l := range lineRIDs {
			if err := c.Update("order_line", l.rid, map[string]rel.Value{"ol_delivery_d": rel.Int(3)}); err != nil {
				return err
			}
		}
		cRID, _, ok, err := c.GetByIndex("customer", "customer_pk", rel.Int(wID), rel.Int(dID), rel.Int(cID))
		if err != nil {
			return err
		}
		if !ok {
			return errNotFound("customer %d/%d/%d", wID, dID, cID)
		}
		if _, err := c.Modify("customer", cRID, func(cur rel.Row) (map[string]rel.Value, error) {
			return map[string]rel.Value{
				"c_balance":      rel.Float(cur[CBalance].F + total),
				"c_delivery_cnt": rel.Int(cur[CDeliveryCnt].I + 1),
			}, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel executes the Stock-Level transaction (clause 2.8): count
// distinct items in the district's last 20 orders whose stock is below the
// threshold.
func StockLevel(c Client, r *rng, s Scale, wID int64) error {
	dID := r.uniform(1, int64(s.DistrictsPerWH))
	threshold := r.uniform(10, 20)
	_, dRow, ok, err := c.GetByIndex("district", "district_pk", rel.Int(wID), rel.Int(dID))
	if err != nil {
		return err
	}
	if !ok {
		return errNotFound("district %d/%d", wID, dID)
	}
	nextOID := dRow[DNextOID].I
	lo := nextOID - 20
	if lo < 1 {
		lo = 1
	}
	items := make(map[int64]bool)
	for oID := lo; oID < nextOID; oID++ {
		err := c.ScanIndex("order_line", "order_line_pk",
			[]rel.Value{rel.Int(wID), rel.Int(dID), rel.Int(oID)},
			func(rid rel.RowID, row rel.Row) bool {
				items[row[OLIID].I] = true
				return true
			})
		if err != nil {
			return err
		}
	}
	low := 0
	for iID := range items {
		_, sRow, ok, err := c.GetByIndex("stock", "stock_pk", rel.Int(wID), rel.Int(iID))
		if err != nil {
			return err
		}
		if ok && sRow[SQuantity].I < threshold {
			low++
		}
	}
	_ = low
	return nil
}
