// Package tpcc implements the TPC-C benchmark (§9): the nine-table schema,
// a scaled data loader, all five transaction profiles with the standard
// mix (New-Order 45 %, Payment 43 %, Order-Status 4 %, Delivery 4 %,
// Stock-Level 4 %), a multi-terminal driver reporting tpmC and tpm, and
// the consistency conditions used to validate an engine after a run.
//
// Transactions are written against the Client interface, which the
// PhoebeDB kernel's transactions satisfy: the in-process analogue of the
// paper's HammerDB TPROC-C setup, where the transaction procedures run
// server-side. The wire benchmark's tpcc workload, the crash harness and
// the replica failover test drive it.
package tpcc

import (
	"phoebedb/internal/rel"
)

// Client is the transaction-scope surface the workload needs; phoebedb's
// *core.Tx satisfies it.
type Client interface {
	Insert(table string, row rel.Row) (rel.RowID, error)
	Get(table string, rid rel.RowID) (rel.Row, bool, error)
	GetByIndex(table, index string, vals ...rel.Value) (rel.RowID, rel.Row, bool, error)
	ScanIndex(table, index string, vals []rel.Value, fn func(rid rel.RowID, row rel.Row) bool) error
	Update(table string, rid rel.RowID, set map[string]rel.Value) error
	// Modify is an atomic read-modify-write (UPDATE ... RETURNING): fn
	// sees the current row under the row's write lock and returns the
	// columns to set; the resulting row is returned. TPC-C's counters
	// (D_NEXT_O_ID, the YTD accumulations, stock quantities) require it.
	Modify(table string, rid rel.RowID, fn func(cur rel.Row) (map[string]rel.Value, error)) (rel.Row, error)
	Delete(table string, rid rel.RowID) error
}

// Backend executes transactions and declares schema; implemented by a
// thin adapter over phoebedb.DB.
type Backend interface {
	CreateTable(name string, schema *rel.Schema) error
	CreateIndex(table, index string, cols []string, unique bool) error
	// Execute runs fn as one transaction: commit on nil, rollback on
	// error. ErrRollback returns are expected (1 % of New-Orders abort by
	// spec) and must roll back without being treated as failures.
	Execute(fn func(c Client) error) error
}

// TaggedBackend is optionally implemented by backends that attribute a
// transaction's cost to a named logical statement (per-statement
// aggregates, wait-event breakdowns). The driver uses it when available,
// tagging each transaction "tpcc.<TxnType>".
type TaggedBackend interface {
	ExecuteTagged(name string, fn func(c Client) error) error
}

// Column index constants per table, in schema order.
//
// WAREHOUSE
const (
	WID = iota
	WName
	WStreet
	WCity
	WState
	WZip
	WTax
	WYtd
)

// DISTRICT
const (
	DID = iota
	DWID
	DName
	DStreet
	DCity
	DState
	DZip
	DTax
	DYtd
	DNextOID
)

// CUSTOMER
const (
	CID = iota
	CDID
	CWID
	CFirst
	CMiddle
	CLast
	CStreet
	CCity
	CState
	CZip
	CPhone
	CSince
	CCredit
	CCreditLim
	CDiscount
	CBalance
	CYtdPayment
	CPaymentCnt
	CDeliveryCnt
	CData
)

// HISTORY
const (
	HCID = iota
	HCDID
	HCWID
	HDID
	HWID
	HDate
	HAmount
	HData
)

// NEW_ORDER
const (
	NOOID = iota
	NODID
	NOWID
)

// ORDERS
const (
	OID = iota
	ODID
	OWID
	OCID
	OEntryD
	OCarrierID
	OOlCnt
	OAllLocal
)

// ORDER_LINE
const (
	OLOID = iota
	OLDID
	OLWID
	OLNumber
	OLIID
	OLSupplyWID
	OLDeliveryD
	OLQuantity
	OLAmount
	OLDistInfo
)

// ITEM
const (
	IID = iota
	IImID
	IName
	IPrice
	IData
)

// STOCK
const (
	SIID = iota
	SWID
	SQuantity
	SDist
	SYtd
	SOrderCnt
	SRemoteCnt
	SData
)

func i64(n string) rel.Column { return rel.Column{Name: n, Type: rel.TInt64} }
func f64(n string) rel.Column { return rel.Column{Name: n, Type: rel.TFloat64} }
func str(n string) rel.Column { return rel.Column{Name: n, Type: rel.TString} }

// Schemas maps table name to schema.
func Schemas() map[string]*rel.Schema {
	return map[string]*rel.Schema{
		"warehouse": rel.NewSchema(
			i64("w_id"), str("w_name"), str("w_street"), str("w_city"),
			str("w_state"), str("w_zip"), f64("w_tax"), f64("w_ytd"),
		),
		"district": rel.NewSchema(
			i64("d_id"), i64("d_w_id"), str("d_name"), str("d_street"),
			str("d_city"), str("d_state"), str("d_zip"), f64("d_tax"),
			f64("d_ytd"), i64("d_next_o_id"),
		),
		"customer": rel.NewSchema(
			i64("c_id"), i64("c_d_id"), i64("c_w_id"), str("c_first"),
			str("c_middle"), str("c_last"), str("c_street"), str("c_city"),
			str("c_state"), str("c_zip"), str("c_phone"), i64("c_since"),
			str("c_credit"), f64("c_credit_lim"), f64("c_discount"),
			f64("c_balance"), f64("c_ytd_payment"), i64("c_payment_cnt"),
			i64("c_delivery_cnt"), str("c_data"),
		),
		"history": rel.NewSchema(
			i64("h_c_id"), i64("h_c_d_id"), i64("h_c_w_id"), i64("h_d_id"),
			i64("h_w_id"), i64("h_date"), f64("h_amount"), str("h_data"),
		),
		"new_order": rel.NewSchema(
			i64("no_o_id"), i64("no_d_id"), i64("no_w_id"),
		),
		"orders": rel.NewSchema(
			i64("o_id"), i64("o_d_id"), i64("o_w_id"), i64("o_c_id"),
			i64("o_entry_d"), i64("o_carrier_id"), i64("o_ol_cnt"), i64("o_all_local"),
		),
		"order_line": rel.NewSchema(
			i64("ol_o_id"), i64("ol_d_id"), i64("ol_w_id"), i64("ol_number"),
			i64("ol_i_id"), i64("ol_supply_w_id"), i64("ol_delivery_d"),
			i64("ol_quantity"), f64("ol_amount"), str("ol_dist_info"),
		),
		"item": rel.NewSchema(
			i64("i_id"), i64("i_im_id"), str("i_name"), f64("i_price"), str("i_data"),
		),
		"stock": rel.NewSchema(
			i64("s_i_id"), i64("s_w_id"), i64("s_quantity"), str("s_dist"),
			i64("s_ytd"), i64("s_order_cnt"), i64("s_remote_cnt"), str("s_data"),
		),
	}
}

type indexDef struct {
	table, name string
	cols        []string
	unique      bool
}

var indexDefs = []indexDef{
	{"warehouse", "warehouse_pk", []string{"w_id"}, true},
	{"district", "district_pk", []string{"d_w_id", "d_id"}, true},
	{"customer", "customer_pk", []string{"c_w_id", "c_d_id", "c_id"}, true},
	{"customer", "customer_name", []string{"c_w_id", "c_d_id", "c_last"}, false},
	{"new_order", "new_order_pk", []string{"no_w_id", "no_d_id", "no_o_id"}, true},
	{"orders", "orders_pk", []string{"o_w_id", "o_d_id", "o_id"}, true},
	{"orders", "orders_customer", []string{"o_w_id", "o_d_id", "o_c_id"}, false},
	{"order_line", "order_line_pk", []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"}, true},
	{"item", "item_pk", []string{"i_id"}, true},
	{"stock", "stock_pk", []string{"s_w_id", "s_i_id"}, true},
}

// Declare creates the nine tables and their indexes on the backend. Table
// creation order is fixed so both engines assign the same table IDs.
func Declare(b Backend) error {
	schemas := Schemas()
	for _, name := range []string{
		"warehouse", "district", "customer", "history",
		"new_order", "orders", "order_line", "item", "stock",
	} {
		if err := b.CreateTable(name, schemas[name]); err != nil {
			return err
		}
	}
	for _, ix := range indexDefs {
		if err := b.CreateIndex(ix.table, ix.name, ix.cols, ix.unique); err != nil {
			return err
		}
	}
	return nil
}
