package main

import (
	"errors"
	"hash"
	"math/rand"
	"strconv"
	"sync"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/adapter"
	"phoebedb/internal/sql"
	"phoebedb/internal/tpcc"
)

// The TPC-C workload: the five transaction profiles of internal/tpcc,
// rewritten as SQL statements so they can travel through the front door.
// The SQL subset has no expressions in SET, so every read-modify-write is a
// SELECT followed by an UPDATE carrying the computed literal; the
// transactions run at REPEATABLE READ, where a concurrent writer turns the
// second half into a serialization failure instead of a lost update, and
// the terminal retries.

// rowset reads a statement's result without fixing its representation: the
// wire client hands back strings, the in-process executor typed values.
type rowset interface {
	n() int
	i64(r, c int) int64
	f64(r, c int) float64
	str(r, c int) string
}

// sqlTx is the transaction surface the SQL bodies are written against. The
// wire connection implements it for the timed windows and the ladder's
// client level, a phoebedb.Session for the ladder's sql level.
type sqlTx interface {
	Begin() error
	Exec(q string) (rowset, error)
	Commit() error
	Rollback() error
}

type wireRows struct{ rows [][]string }

func (w wireRows) n() int               { return len(w.rows) }
func (w wireRows) str(r, c int) string  { return w.rows[r][c] }
func (w wireRows) i64(r, c int) int64   { v, _ := strconv.ParseInt(w.rows[r][c], 10, 64); return v }
func (w wireRows) f64(r, c int) float64 { v, _ := strconv.ParseFloat(w.rows[r][c], 64); return v }

type wireTx struct{ c *client.Conn }

func (t wireTx) Begin() error    { return t.c.BeginRepeatableRead() }
func (t wireTx) Commit() error   { return t.c.Commit() }
func (t wireTx) Rollback() error { return t.c.Rollback() }
func (t wireTx) Exec(q string) (rowset, error) {
	res, err := t.c.Exec(q)
	return wireRows{res.Rows}, err
}

type relRows struct{ rows []phoebedb.Row }

func (w relRows) n() int               { return len(w.rows) }
func (w relRows) str(r, c int) string  { return w.rows[r][c].S }
func (w relRows) i64(r, c int) int64   { return w.rows[r][c].I }
func (w relRows) f64(r, c int) float64 { return w.rows[r][c].F }

// sessionTx runs the same statements in-process. capture, when set,
// receives every statement and its result (the codec and parser timings of
// the traced run replay them).
type sessionTx struct {
	db      *phoebedb.DB
	sess    *phoebedb.Session
	tx      *phoebedb.Tx
	capture func(q string, res sql.Result)
}

func (t *sessionTx) Begin() error {
	t.tx = t.sess.Begin(phoebedb.RepeatableRead)
	return nil
}
func (t *sessionTx) Commit() error   { return t.tx.Commit() }
func (t *sessionTx) Rollback() error { return t.tx.Rollback() }
func (t *sessionTx) Exec(q string) (rowset, error) {
	res, err := t.db.ExecSQLTx(t.tx, q)
	if err == nil && t.capture != nil {
		t.capture(q, res)
	}
	return relRows{res.Rows}, err
}

// sqlBuf assembles statement text with strconv appends. TPC-C statements
// carry values read earlier in the same transaction (the next order id, a
// stock quantity), so they cannot all be rendered before the window; what
// the timed loop avoids is fmt and the random source.
type sqlBuf struct{ b []byte }

func (s *sqlBuf) t(text string) *sqlBuf { s.b = append(s.b, text...); return s }
func (s *sqlBuf) i(v int64) *sqlBuf     { s.b = strconv.AppendInt(s.b, v, 10); return s }
func (s *sqlBuf) f(v float64) *sqlBuf {
	// 'f' with the shortest round-trip precision: the lexer has no exponent.
	s.b = strconv.AppendFloat(s.b, v, 'f', -1, 64)
	return s
}
func (s *sqlBuf) q(v string) *sqlBuf {
	s.b = append(s.b, '\'')
	s.b = append(s.b, v...)
	s.b = append(s.b, '\'')
	return s
}
func (s *sqlBuf) done() string {
	out := string(s.b)
	s.b = s.b[:0]
	return out
}

type orderLine struct {
	item, supplyW, qty int64
}

// tpccTxn is one pre-generated transaction: its type and every parameter
// the specification draws at random.
type tpccTxn struct {
	typ      tpcc.TxnType
	w, d     int64
	c        int64  // customer id (NewOrder; by-id Payment/OrderStatus; by-name fallback)
	last     string // customer last name; "" selects by id
	cw, cd   int64  // Payment: customer's warehouse and district
	amount   float64
	lines    []orderLine
	rollback bool  // NewOrder: the 1 % unused-item abort
	carrier  int64 // Delivery
	thresh   int64 // StockLevel
}

var errUserRollback = errors.New("tpcc: intentional rollback")

type errNoRow string

func (e errNoRow) Error() string { return "tpcc: no row for " + string(e) }

// nuRand is TPC-C's non-uniform random function (clause 2.1.6).
func nuRand(r *rand.Rand, a, c, lo, hi int64) int64 {
	return ((r.Int63n(a+1)|(lo+r.Int63n(hi-lo+1)))+c)%(hi-lo+1) + lo
}

// genTPCC draws n transactions for the terminal bound to warehouse w, in
// the standard 45/43/4/4/4 mix.
func genTPCC(r *rand.Rand, s tpcc.Scale, w int64, n int) []tpccTxn {
	cLast, cID, cItem := r.Int63n(256), r.Int63n(1024), r.Int63n(8192)
	uniform := func(lo, hi int64) int64 { return lo + r.Int63n(hi-lo+1) }
	customer := func() int64 { return nuRand(r, 1023, cID, 1, int64(s.CustomersPerDistrict)) }
	// 60 % of customer selections go by last name.
	lastName := func() string {
		if r.Intn(100) < 40 {
			return ""
		}
		return tpcc.LastName(nuRand(r, 255, cLast, 0, s.MaxLastNames-1))
	}
	otherWarehouse := func() int64 {
		for {
			if o := uniform(1, int64(s.Warehouses)); o != w {
				return o
			}
		}
	}
	out := make([]tpccTxn, n)
	for i := range out {
		t := &out[i]
		t.w, t.d = w, uniform(1, int64(s.DistrictsPerWH))
		switch x := r.Intn(100); {
		case x < 45:
			t.typ = tpcc.TxnNewOrder
			t.c = customer()
			t.rollback = r.Intn(100) == 0
			t.lines = make([]orderLine, uniform(5, 15))
			for l := range t.lines {
				ol := orderLine{item: nuRand(r, 8191, cItem, 1, int64(s.Items)), supplyW: w, qty: uniform(1, 10)}
				if s.Warehouses > 1 && r.Intn(100) == 0 {
					ol.supplyW = otherWarehouse()
				}
				t.lines[l] = ol
			}
			if t.rollback {
				t.lines[len(t.lines)-1].item = int64(s.Items) + 777777
			}
		case x < 88:
			t.typ = tpcc.TxnPayment
			t.amount = float64(uniform(100, 500000)) / 100
			t.cw, t.cd = w, t.d
			if s.Warehouses > 1 && r.Intn(100) >= 85 {
				t.cw, t.cd = otherWarehouse(), uniform(1, int64(s.DistrictsPerWH))
			}
			t.last, t.c = lastName(), customer()
		case x < 92:
			t.typ = tpcc.TxnOrderStatus
			t.last, t.c = lastName(), customer()
		case x < 96:
			t.typ = tpcc.TxnDelivery
			t.carrier = uniform(1, 10)
		default:
			t.typ = tpcc.TxnStockLevel
			t.thresh = uniform(10, 20)
		}
	}
	return out
}

// findCustomer resolves the transaction's customer in (w, d): by id, or by
// last name taking the middle row ordered by first name (clause 2.5.2.2),
// falling back to the id when the scale has no customer of that name.
func findCustomer(x sqlTx, sb *sqlBuf, t *tpccTxn, w, d int64) (int64, error) {
	if t.last == "" {
		return t.c, nil
	}
	rs, err := x.Exec(sb.t("SELECT c_id FROM customer WHERE c_w_id = ").i(w).t(" AND c_d_id = ").i(d).
		t(" AND c_last = ").q(t.last).t(" ORDER BY c_first").done())
	if err != nil {
		return 0, err
	}
	if rs.n() == 0 {
		return t.c, nil
	}
	return rs.i64(rs.n()/2, 0), nil
}

func newOrder(x sqlTx, sb *sqlBuf, t *tpccTxn) error {
	rs, err := x.Exec(sb.t("SELECT w_tax FROM warehouse WHERE w_id = ").i(t.w).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("warehouse")
	}
	wTax := rs.f64(0, 0)
	rs, err = x.Exec(sb.t("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ").i(t.w).t(" AND d_id = ").i(t.d).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("district")
	}
	dTax, oID := rs.f64(0, 0), rs.i64(0, 1)
	if _, err = x.Exec(sb.t("UPDATE district SET d_next_o_id = ").i(oID + 1).
		t(" WHERE d_w_id = ").i(t.w).t(" AND d_id = ").i(t.d).done()); err != nil {
		return err
	}
	rs, err = x.Exec(sb.t("SELECT c_discount, c_last, c_credit FROM customer WHERE c_w_id = ").i(t.w).
		t(" AND c_d_id = ").i(t.d).t(" AND c_id = ").i(t.c).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("customer")
	}
	discount := rs.f64(0, 0)
	allLocal := int64(1)
	for _, ol := range t.lines {
		if ol.supplyW != t.w {
			allLocal = 0
		}
	}
	if _, err = x.Exec(sb.t("INSERT INTO orders VALUES (").i(oID).t(", ").i(t.d).t(", ").i(t.w).t(", ").i(t.c).
		t(", 1, 0, ").i(int64(len(t.lines))).t(", ").i(allLocal).t(")").done()); err != nil {
		return err
	}
	if _, err = x.Exec(sb.t("INSERT INTO new_order VALUES (").i(oID).t(", ").i(t.d).t(", ").i(t.w).t(")").done()); err != nil {
		return err
	}
	var total float64
	for n, ol := range t.lines {
		rs, err = x.Exec(sb.t("SELECT i_price FROM item WHERE i_id = ").i(ol.item).done())
		if err != nil {
			return err
		}
		if rs.n() == 0 {
			return errUserRollback
		}
		price := rs.f64(0, 0)
		rs, err = x.Exec(sb.t("SELECT s_quantity, s_ytd, s_order_cnt, s_remote_cnt, s_dist FROM stock WHERE s_w_id = ").
			i(ol.supplyW).t(" AND s_i_id = ").i(ol.item).done())
		if err != nil {
			return err
		}
		if rs.n() != 1 {
			return errNoRow("stock")
		}
		qty, dist := rs.i64(0, 0), rs.str(0, 4)
		if qty >= ol.qty+10 {
			qty -= ol.qty
		} else {
			qty = qty - ol.qty + 91
		}
		sb.t("UPDATE stock SET s_quantity = ").i(qty).t(", s_ytd = ").i(rs.i64(0, 1) + ol.qty).
			t(", s_order_cnt = ").i(rs.i64(0, 2) + 1)
		if ol.supplyW != t.w {
			sb.t(", s_remote_cnt = ").i(rs.i64(0, 3) + 1)
		}
		if _, err = x.Exec(sb.t(" WHERE s_w_id = ").i(ol.supplyW).t(" AND s_i_id = ").i(ol.item).done()); err != nil {
			return err
		}
		amount := float64(ol.qty) * price
		total += amount
		if _, err = x.Exec(sb.t("INSERT INTO order_line VALUES (").i(oID).t(", ").i(t.d).t(", ").i(t.w).t(", ").
			i(int64(n + 1)).t(", ").i(ol.item).t(", ").i(ol.supplyW).t(", 0, ").i(ol.qty).t(", ").f(amount).
			t(", ").q(dist).t(")").done()); err != nil {
			return err
		}
	}
	// The terminal displays the order total; computing it uses every read.
	_ = total * (1 - discount) * (1 + wTax + dTax)
	return nil
}

func payment(x sqlTx, sb *sqlBuf, t *tpccTxn) error {
	rs, err := x.Exec(sb.t("SELECT w_name, w_ytd FROM warehouse WHERE w_id = ").i(t.w).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("warehouse")
	}
	wName := rs.str(0, 0)
	if _, err = x.Exec(sb.t("UPDATE warehouse SET w_ytd = ").f(rs.f64(0, 1) + t.amount).t(" WHERE w_id = ").i(t.w).done()); err != nil {
		return err
	}
	rs, err = x.Exec(sb.t("SELECT d_name, d_ytd FROM district WHERE d_w_id = ").i(t.w).t(" AND d_id = ").i(t.d).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("district")
	}
	dName := rs.str(0, 0)
	if _, err = x.Exec(sb.t("UPDATE district SET d_ytd = ").f(rs.f64(0, 1) + t.amount).
		t(" WHERE d_w_id = ").i(t.w).t(" AND d_id = ").i(t.d).done()); err != nil {
		return err
	}
	cID, err := findCustomer(x, sb, t, t.cw, t.cd)
	if err != nil {
		return err
	}
	rs, err = x.Exec(sb.t("SELECT c_balance, c_ytd_payment, c_payment_cnt, c_credit, c_data FROM customer WHERE c_w_id = ").
		i(t.cw).t(" AND c_d_id = ").i(t.cd).t(" AND c_id = ").i(cID).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("customer")
	}
	sb.t("UPDATE customer SET c_balance = ").f(rs.f64(0, 0) - t.amount).t(", c_ytd_payment = ").f(rs.f64(0, 1) + t.amount).
		t(", c_payment_cnt = ").i(rs.i64(0, 2) + 1)
	if rs.str(0, 3) == "BC" {
		// Bad credit: the payment is prepended to c_data, capped at 500.
		var d sqlBuf
		d.i(cID).t(" ").i(t.cd).t(" ").i(t.cw).t(" ").i(t.d).t(" ").i(t.w).t(" ").f(t.amount).t("|").t(rs.str(0, 4))
		data := d.done()
		if len(data) > 500 {
			data = data[:500]
		}
		sb.t(", c_data = ").q(data)
	}
	if _, err = x.Exec(sb.t(" WHERE c_w_id = ").i(t.cw).t(" AND c_d_id = ").i(t.cd).t(" AND c_id = ").i(cID).done()); err != nil {
		return err
	}
	_, err = x.Exec(sb.t("INSERT INTO history VALUES (").i(cID).t(", ").i(t.cd).t(", ").i(t.cw).t(", ").i(t.d).t(", ").i(t.w).
		t(", 2, ").f(t.amount).t(", ").q(wName + "    " + dName).t(")").done())
	return err
}

func orderStatus(x sqlTx, sb *sqlBuf, t *tpccTxn) error {
	cID, err := findCustomer(x, sb, t, t.w, t.d)
	if err != nil {
		return err
	}
	rs, err := x.Exec(sb.t("SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = ").i(t.w).t(" AND o_d_id = ").i(t.d).
		t(" AND o_c_id = ").i(cID).t(" ORDER BY o_id DESC LIMIT 1").done())
	if err != nil {
		return err
	}
	if rs.n() == 0 {
		return nil // a customer without orders is a valid outcome
	}
	rs, err = x.Exec(sb.t("SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM order_line WHERE ol_w_id = ").
		i(t.w).t(" AND ol_d_id = ").i(t.d).t(" AND ol_o_id = ").i(rs.i64(0, 0)).done())
	if err != nil {
		return err
	}
	if rs.n() == 0 {
		return errNoRow("order lines")
	}
	return nil
}

func delivery(x sqlTx, sb *sqlBuf, t *tpccTxn, districts int64) error {
	for d := int64(1); d <= districts; d++ {
		rs, err := x.Exec(sb.t("SELECT no_o_id FROM new_order WHERE no_w_id = ").i(t.w).t(" AND no_d_id = ").i(d).
			t(" ORDER BY no_o_id LIMIT 1").done())
		if err != nil {
			return err
		}
		if rs.n() == 0 {
			continue // district fully delivered: skipped per spec
		}
		oID := rs.i64(0, 0)
		if _, err = x.Exec(sb.t("DELETE FROM new_order WHERE no_w_id = ").i(t.w).t(" AND no_d_id = ").i(d).
			t(" AND no_o_id = ").i(oID).done()); err != nil {
			return err
		}
		rs, err = x.Exec(sb.t("SELECT o_c_id FROM orders WHERE o_w_id = ").i(t.w).t(" AND o_d_id = ").i(d).
			t(" AND o_id = ").i(oID).done())
		if err != nil {
			return err
		}
		if rs.n() != 1 {
			return errNoRow("order")
		}
		cID := rs.i64(0, 0)
		if _, err = x.Exec(sb.t("UPDATE orders SET o_carrier_id = ").i(t.carrier).t(" WHERE o_w_id = ").i(t.w).
			t(" AND o_d_id = ").i(d).t(" AND o_id = ").i(oID).done()); err != nil {
			return err
		}
		if _, err = x.Exec(sb.t("UPDATE order_line SET ol_delivery_d = 3 WHERE ol_w_id = ").i(t.w).
			t(" AND ol_d_id = ").i(d).t(" AND ol_o_id = ").i(oID).done()); err != nil {
			return err
		}
		rs, err = x.Exec(sb.t("SELECT sum(ol_amount) FROM order_line WHERE ol_w_id = ").i(t.w).
			t(" AND ol_d_id = ").i(d).t(" AND ol_o_id = ").i(oID).done())
		if err != nil {
			return err
		}
		if rs.n() != 1 {
			return errNoRow("order lines")
		}
		total := rs.f64(0, 0)
		rs, err = x.Exec(sb.t("SELECT c_balance, c_delivery_cnt FROM customer WHERE c_w_id = ").i(t.w).
			t(" AND c_d_id = ").i(d).t(" AND c_id = ").i(cID).done())
		if err != nil {
			return err
		}
		if rs.n() != 1 {
			return errNoRow("customer")
		}
		if _, err = x.Exec(sb.t("UPDATE customer SET c_balance = ").f(rs.f64(0, 0) + total).
			t(", c_delivery_cnt = ").i(rs.i64(0, 1) + 1).t(" WHERE c_w_id = ").i(t.w).
			t(" AND c_d_id = ").i(d).t(" AND c_id = ").i(cID).done()); err != nil {
			return err
		}
	}
	return nil
}

func stockLevel(x sqlTx, sb *sqlBuf, t *tpccTxn) error {
	rs, err := x.Exec(sb.t("SELECT d_next_o_id FROM district WHERE d_w_id = ").i(t.w).t(" AND d_id = ").i(t.d).done())
	if err != nil {
		return err
	}
	if rs.n() != 1 {
		return errNoRow("district")
	}
	next := rs.i64(0, 0)
	// Items of the district's last 20 orders whose stock is below the
	// threshold; the terminal counts the distinct ones.
	rs, err = x.Exec(sb.t("SELECT ol_i_id FROM order_line JOIN stock ON ol_i_id = s_i_id WHERE ol_w_id = ").i(t.w).
		t(" AND ol_d_id = ").i(t.d).t(" AND ol_o_id >= ").i(next - 20).t(" AND ol_o_id < ").i(next).
		t(" AND s_w_id = ").i(t.w).t(" AND s_quantity < ").i(t.thresh).done())
	if err != nil {
		return err
	}
	low := make(map[int64]struct{}, rs.n())
	for r := 0; r < rs.n(); r++ {
		low[rs.i64(r, 0)] = struct{}{}
	}
	return nil
}

// runTxn executes one transaction body between Begin and Commit. An
// intentional NewOrder rollback is a finished transaction; any other error
// rolls back and is retried, since under REPEATABLE READ a write-write
// conflict with the other terminal surfaces as a statement error. A broken
// connection fails Begin or Rollback and ends the loop at once.
func runTxn(x sqlTx, sb *sqlBuf, t *tpccTxn, s tpcc.Scale) (retries int, err error) {
	for ; ; retries++ {
		if err = x.Begin(); err != nil {
			return retries, err
		}
		switch t.typ {
		case tpcc.TxnNewOrder:
			err = newOrder(x, sb, t)
		case tpcc.TxnPayment:
			err = payment(x, sb, t)
		case tpcc.TxnOrderStatus:
			err = orderStatus(x, sb, t)
		case tpcc.TxnDelivery:
			err = delivery(x, sb, t, int64(s.DistrictsPerWH))
		default:
			err = stockLevel(x, sb, t)
		}
		sb.b = sb.b[:0]
		if err == nil {
			// A failed commit has already ended the transaction.
			if err = x.Commit(); err == nil {
				return retries, nil
			}
		} else if rerr := x.Rollback(); rerr != nil {
			return retries, rerr
		}
		if err == errUserRollback {
			return retries, nil
		}
		if retries == maxTxnRetries {
			return retries, err
		}
	}
}

const maxTxnRetries = 3

// tpccScript is one terminal's transaction stream.
type tpccScript struct {
	scale tpcc.Scale
	txns  []tpccTxn
	// gate is held shared around every transaction and exclusively around
	// a checkpoint, which needs the engine quiescent.
	gate *sync.RWMutex
	sb   sqlBuf
	// in-process state for the ladder's lower levels
	sess *sessionTx
	rng  *tpcc.RNG
}

func (s *tpccScript) hashInto(h hash.Hash) {
	var sb sqlBuf
	for i := range s.txns {
		t := &s.txns[i]
		sb.i(int64(t.typ)).t(",").i(t.w).t(",").i(t.d).t(",").i(t.c).t(",").t(t.last).t(",").i(t.cw).t(",").i(t.cd).
			t(",").f(t.amount).t(",").i(t.carrier).t(",").i(t.thresh)
		for _, ol := range t.lines {
			sb.t(";").i(ol.item).t(",").i(ol.supplyW).t(",").i(ol.qty)
		}
		sb.t("\n")
		h.Write(sb.b)
		sb.b = sb.b[:0]
	}
}

// wire runs transaction pos over the connection. Its latency starts when
// the terminal was ready to send it, so a transaction held back by a
// checkpoint is charged the wait.
func (s *tpccScript) wire(c *client.Conn, pos, _ int, done doneFunc) error {
	t := &s.txns[pos%len(s.txns)]
	start := time.Now()
	s.gate.RLock()
	retries, err := runTxn(wireTx{c}, &s.sb, t, s.scale)
	s.gate.RUnlock()
	var se *client.ServerError
	if err != nil && !errors.As(err, &se) {
		return err
	}
	done(start, time.Now(), err == nil, retries, t.typ == tpcc.TxnNewOrder)
	return nil
}

func (s *tpccScript) sql(db *phoebedb.DB, pos int, capture func(string, sql.Result)) error {
	if s.sess == nil {
		sess, err := db.Session()
		if err != nil {
			return err
		}
		s.sess = &sessionTx{db: db, sess: sess}
	}
	s.sess.capture = capture
	_, err := runTxn(s.sess, &s.sb, &s.txns[pos%len(s.txns)], s.scale)
	return err
}

// core runs the kernel-call profile of the same type and warehouse as
// transaction pos through internal/tpcc, which draws the remaining
// parameters from its own seeded source.
func (s *tpccScript) core(db *phoebedb.DB, pos int) error {
	t := &s.txns[pos%len(s.txns)]
	if s.rng == nil {
		s.rng = tpcc.NewRNG(int64(len(s.txns)))
	}
	err := adapter.Phoebe{DB: db}.Execute(func(c tpcc.Client) error {
		switch t.typ {
		case tpcc.TxnNewOrder:
			return tpcc.NewOrder(c, s.rng, s.scale, t.w)
		case tpcc.TxnPayment:
			return tpcc.Payment(c, s.rng, s.scale, t.w)
		case tpcc.TxnOrderStatus:
			return tpcc.OrderStatus(c, s.rng, s.scale, t.w)
		case tpcc.TxnDelivery:
			return tpcc.Delivery(c, s.rng, s.scale, t.w)
		default:
			return tpcc.StockLevel(c, s.rng, s.scale, t.w)
		}
	})
	if errors.Is(err, tpcc.ErrRollback) {
		return nil
	}
	return err
}
