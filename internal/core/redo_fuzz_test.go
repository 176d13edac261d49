package core

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
	"phoebedb/internal/wal"
)

// redoHistory runs a small primary history — a table and two indexes,
// inserts, key updates, a delete, a rolled-back insert (which logs
// nothing), a second table — and returns its log in GSN order.
func redoHistory(t testing.TB) []wal.Record {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("kv", rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "g", Type: rel.TFloat64},
		rel.Column{Name: "v", Type: rel.TString},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("kv", "kv_k", []string{"k"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("kv", "kv_g", []string{"g"}, false); err != nil {
		t.Fatal(err)
	}
	exec := func(commit bool, fn func(tx *Tx) error) {
		tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if !commit {
			tx.Rollback()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var rids []rel.RowID
	exec(true, func(tx *Tx) error {
		for k := int64(1); k <= 4; k++ {
			rid, err := tx.Insert("kv", rel.Row{rel.Int(k), rel.Float(float64(k)), rel.Str("v")})
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	})
	exec(true, func(tx *Tx) error {
		return tx.Update("kv", rids[0], map[string]rel.Value{"k": rel.Int(9), "g": rel.Float(0.5)})
	})
	exec(true, func(tx *Tx) error { return tx.Delete("kv", rids[1]) })
	exec(false, func(tx *Tx) error {
		_, err := tx.Insert("kv", rel.Row{rel.Int(5), rel.Float(5), rel.Str("aborted")})
		return err
	})
	if _, err := e.CreateTable("other", rel.NewSchema(rel.Column{Name: "x", Type: rel.TInt64})); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Recover(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// redoInto applies records to a fresh engine through one applier.
func redoInto(t *testing.T, recs []wal.Record) (*Engine, error) {
	t.Helper()
	e, err := Open(Config{Dir: t.TempDir(), Slots: 2, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	rd := e.NewRedo()
	for _, r := range recs {
		rd.Add(r)
	}
	_, err = rd.Apply()
	return e, err
}

// TestRedoAppliesCommittedOnly: the log holds committed work only, but a
// torn flush, or a log an earlier release wrote (which carries running
// transactions' records and abort records), leaves records without a
// commit. They apply nothing: an open transaction's stay buffered until its
// commit arrives, and an abort record drops its transaction's.
func TestRedoAppliesCommittedOnly(t *testing.T) {
	var recs []wal.Record
	for _, r := range redoHistory(t) {
		if r.Type == wal.RecCatalog {
			recs = append(recs, r)
		}
	}
	kv := recs[0].TableID // the history's first table
	row := func(k int64) []byte { return rel.EncodeRow(nil, rel.Row{rel.Int(k), rel.Float(1), rel.Str("v")}) }
	const open, aborted, cts = 1 << 40, 1<<40 + 2, 1 << 41
	e, err := Open(Config{Dir: t.TempDir(), Slots: 2, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rd := e.NewRedo()
	gsn := recs[len(recs)-1].GSN
	for _, r := range append(recs,
		wal.Record{Type: wal.RecInsert, XID: open, TableID: kv, RowID: 1000, Payload: row(1)},
		wal.Record{Type: wal.RecInsert, XID: aborted, TableID: kv, RowID: 1001, Payload: row(2)},
		wal.Record{Type: wal.RecAbort, XID: aborted},
	) {
		if r.Type != wal.RecCatalog {
			gsn++
			r.GSN = gsn
		}
		rd.Add(r)
	}
	count := func() int {
		n := 0
		tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
		defer tx.Commit()
		if err := tx.ScanTable("kv", func(rel.RowID, rel.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n, err := rd.Apply(); err != nil || n != 0 || count() != 0 {
		t.Fatalf("Apply without a commit = %d, %v, %d rows; want nothing applied", n, err, count())
	}
	if _, ok := rd.pending[aborted]; ok || len(rd.pending) != 1 {
		t.Fatalf("applier buffers %d transactions, the aborted one %v; want only the open one", len(rd.pending), ok)
	}
	rd.Add(wal.Record{Type: wal.RecCommit, GSN: gsn + 1, XID: open, RowID: cts})
	if n, err := rd.Apply(); err != nil || n != 1 || count() != 1 {
		t.Fatalf("Apply after the commit = %d, %v, %d rows; want the open transaction's one row", n, err, count())
	}
}

// TestRedoRejectsBadRecords: a committed record naming a table or row that
// does not exist, or carrying a payload that does not decode or fit its
// table, makes the applier return an error.
func TestRedoRejectsBadRecords(t *testing.T) {
	history := redoHistory(t)
	if _, err := redoInto(t, history); err != nil {
		t.Fatalf("clean history: %v", err)
	}
	var ins wal.Record
	for _, r := range history {
		if r.Type == wal.RecInsert {
			ins = r
			break
		}
	}
	row := rel.EncodeRow(nil, rel.Row{rel.Int(77), rel.Float(7), rel.Str("x")})
	delta := rel.EncodeDelta(nil, []int{1}, rel.Row{rel.Float(3)})
	const xid, cts = 1 << 40, 1 << 41
	for name, bad := range map[string]wal.Record{
		"unknown table":       {Type: wal.RecInsert, TableID: 99, RowID: 1000, Payload: row},
		"insert over a row":   {Type: wal.RecInsert, TableID: ins.TableID, RowID: ins.RowID, Payload: row},
		"update missing row":  {Type: wal.RecUpdate, TableID: ins.TableID, RowID: 1 << 30, Payload: delta},
		"delete missing row":  {Type: wal.RecDelete, TableID: ins.TableID, RowID: 1 << 30},
		"row undecodable":     {Type: wal.RecInsert, TableID: ins.TableID, RowID: 1000, Payload: []byte{3, 0, 9}},
		"row of other shape":  {Type: wal.RecInsert, TableID: ins.TableID, RowID: 1000, Payload: rel.EncodeRow(nil, rel.Row{rel.Int(1)})},
		"delta undecodable":   {Type: wal.RecUpdate, TableID: ins.TableID, RowID: ins.RowID, Payload: []byte{1, 0, 0}},
		"delta column range":  {Type: wal.RecUpdate, TableID: ins.TableID, RowID: ins.RowID, Payload: rel.EncodeDelta(nil, []int{7}, rel.Row{rel.Int(1)})},
		"delta column type":   {Type: wal.RecUpdate, TableID: ins.TableID, RowID: ins.RowID, Payload: rel.EncodeDelta(nil, []int{0}, rel.Row{rel.Str("s")})},
		"catalog undecodable": {Type: wal.RecCatalog, Payload: []byte("PCC1 torn")},
		"catalog key range":   {Type: wal.RecCatalog, TableID: ins.TableID, Payload: encodeCatalog(catalogChange{id: ins.TableID, index: true, name: "kv_bad", keys: []int{5}})},
	} {
		t.Run(name, func(t *testing.T) {
			recs := append(append([]wal.Record(nil), history...), bad)
			last := recs[len(recs)-2].GSN
			recs[len(recs)-1].GSN = last + 1
			if bad.Type != wal.RecCatalog {
				recs[len(recs)-1].XID = xid
				recs = append(recs, wal.Record{Type: wal.RecCommit, GSN: last + 2, XID: xid, RowID: cts})
			}
			if _, err := redoInto(t, recs); err == nil {
				t.Fatal("applied without an error")
			}
		})
	}
}

// FuzzRedo feeds the applier arbitrary record streams, seeded from a real
// history: whatever the records say, Apply must return — an error or
// not — and never panic. Input framing, per record: type u8, then
// uvarints xid, table id, row id and payload length, then the payload;
// GSNs follow input order.
func FuzzRedo(f *testing.F) {
	history := redoHistory(f)
	f.Add(encodeFuzzRecords(history))
	f.Add(encodeFuzzRecords(history[:len(history)/2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		redoInto(t, decodeFuzzRecords(data))
	})
}

func encodeFuzzRecords(recs []wal.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, byte(r.Type))
		b = binary.AppendUvarint(b, r.XID)
		b = binary.AppendUvarint(b, uint64(r.TableID))
		b = binary.AppendUvarint(b, r.RowID)
		b = binary.AppendUvarint(b, uint64(len(r.Payload)))
		b = append(b, r.Payload...)
	}
	return b
}

func decodeFuzzRecords(b []byte) []wal.Record {
	var recs []wal.Record
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	for len(b) > 0 {
		r := wal.Record{Type: wal.RecordType(b[0]), GSN: uint64(len(recs) + 1)}
		b = b[1:]
		xid, ok1 := next()
		table, ok2 := next()
		rid, ok3 := next()
		n, ok4 := next()
		if !ok1 || !ok2 || !ok3 || !ok4 || n > uint64(len(b)) {
			break
		}
		r.XID, r.TableID, r.RowID, r.Payload = xid, uint32(table), rid, b[:n]
		b = b[n:]
		recs = append(recs, r)
	}
	return recs
}
