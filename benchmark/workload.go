package main

import (
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"sync"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/adapter"
	"phoebedb/internal/rel"
	"phoebedb/internal/sql"
	"phoebedb/internal/tpcc"
)

// connections is fixed at the sandbox's core count so records stay
// comparable: two closed-loop clients in this process, one goroutine each.
const connections = 2

// doneFunc receives one finished operation: when the client was ready to
// send it, when its response had been read, whether it succeeded, how often
// it was retried, and whether lat_p50_us counts it (every operation, except
// on tpcc, where only New-Order does).
type doneFunc func(start, end time.Time, ok bool, retries int, primary bool)

// script is one connection's pre-generated operation stream. Positions
// wrap around, so a window may run longer than the stream.
type script interface {
	hashInto(h hash.Hash)
	// wire runs operations [pos, pos+n) over the connection, n requests in
	// flight, and reports each to done. Only a broken transport or a wrong
	// answer is an error; a server-side refusal is a failed operation.
	wire(c *client.Conn, pos, n int, done doneFunc) error
	// sql runs operation pos through the in-process SQL entry points.
	sql(db *phoebedb.DB, pos int, capture func(string, sql.Result)) error
	// core runs the equivalent kernel calls.
	core(db *phoebedb.DB, pos int) error
}

// workload is one named traffic mix with its database.
type workload struct {
	name string
	// depth is the number of requests a connection keeps in flight; at
	// depth 1 every request is a synchronous round trip.
	depth int
	// setupReps is how often set-up is repeated for the setup_s median;
	// cheaper set-ups repeat more, so each workload spends 2.5-6 s on it.
	setupReps int
	// bufferBytes overrides Options.BufferBytes (0 keeps the default).
	bufferBytes int64
	// checkpoints makes the harness call DB.Checkpoint at 1/3 and 2/3 of
	// the window.
	checkpoints bool
	// mixed marks a workload whose operations are of several kinds with
	// latencies apart: lat_p50_us then counts only the ones its script
	// reports as primary. The all-kinds median of tpcc sits on the cliff
	// between the short profiles (51 % of the mix) and the long ones, and
	// spread a third wider than its throughput from run to run.
	mixed bool
	// ladderOps is the fixed operation count of each ladder level.
	ladderOps int
	// rateHint is an upper estimate of ops/s for sizing sample buffers.
	rateHint int
	// sizes describes the data for the run record.
	sizes map[string]int64
	// declare creates the tables and indexes; load populates them and
	// shapes the tiers. shrink divides row counts (smoke mode).
	declare func(db *phoebedb.DB) error
	load    func(db *phoebedb.DB, shrink int) error
	// restart closes the loaded database and recovers it from its
	// checkpoint before serving, as a restarted server would.
	restart bool
	// scripts generates one stream per connection from the seed.
	scripts func(seed int64, shrink int) []script
	// verify checks the database after the window. pos holds each
	// connection's final stream position.
	verify func(e *env, scripts []script, pos []int) error
}

// --- single-statement workloads ---------------------------------------------

const (
	opRead = iota
	opUpdate
	opScan
)

// stmtOp is one pre-rendered statement with what its answer must carry.
type stmtOp struct {
	q      string
	kind   uint8
	key    int64  // primary key, or the scan's lower bound
	val    int64  // opUpdate: the value written
	w0, w1 string // expected first-row values of a read or scan
}

type stmtScript struct {
	table, pk string
	ops       []stmtOp
}

func (s *stmtScript) hashInto(h hash.Hash) {
	for i := range s.ops {
		h.Write([]byte(s.ops[i].q))
		h.Write([]byte{'\n'})
	}
}

// maxDepth bounds a workload's pipeline depth (and the server's default
// MaxPipeline of 128 bounds it from above).
const maxDepth = 32

func (s *stmtScript) wire(c *client.Conn, pos, n int, done doneFunc) error {
	var starts [maxDepth]time.Time
	for k := 0; k < n; k++ {
		starts[k] = time.Now()
		if err := c.Send(s.ops[(pos+k)%len(s.ops)].q); err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		op := &s.ops[(pos+k)%len(s.ops)]
		res, err := c.Recv()
		end := time.Now()
		var se *client.ServerError
		switch {
		case err == nil:
			if !op.answered(res) {
				return fmt.Errorf("wrong answer to %q: %v (affected %d)", op.q, res.Rows, res.Affected)
			}
		case !errors.As(err, &se):
			return err
		}
		done(starts[k], end, err == nil, 0, true)
	}
	return nil
}

func (op *stmtOp) answered(res client.Result) bool {
	if op.kind == opUpdate {
		return res.Affected == 1
	}
	return len(res.Rows) == 1 && res.Rows[0][0] == op.w0 && (op.w1 == "" || res.Rows[0][1] == op.w1)
}

func (s *stmtScript) sql(db *phoebedb.DB, pos int, capture func(string, sql.Result)) error {
	op := &s.ops[pos%len(s.ops)]
	res, err := db.ExecSQL(op.q)
	if err == nil && capture != nil {
		capture(op.q, res)
	}
	return err
}

func (s *stmtScript) core(db *phoebedb.DB, pos int) error {
	op := &s.ops[pos%len(s.ops)]
	return db.Execute(func(tx *phoebedb.Tx) error {
		if op.kind == opScan {
			_, n, err := tx.AggTableFiltered(s.table,
				[]rel.ColPred{{Col: bigSeq, Op: rel.CmpGe, Val: rel.Int(op.key)}, {Col: bigSeq, Op: rel.CmpLe, Val: rel.Int(op.key + scanSpan - 1)}},
				[]rel.AggSpec{{Op: rel.AggOpCount}, {Op: rel.AggOpSum, Col: bigHits}})
			if err == nil && n != scanSpan {
				err = fmt.Errorf("core scan from %d: %d rows", op.key, n)
			}
			return err
		}
		rid, _, ok, err := tx.GetByIndex(s.table, s.pk, rel.Int(op.key))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core read: %s %d missing", s.table, op.key)
		}
		if op.kind == opUpdate {
			return tx.Update(s.table, rid, map[string]rel.Value{"a": rel.Int(op.val)})
		}
		return nil
	})
}

// loadRows inserts rows 0..n-1 of a table in 1000-row transactions.
func loadRows(db *phoebedb.DB, table string, n int, row func(i int) phoebedb.Row) error {
	for lo := 0; lo < n; lo += 1000 {
		err := db.Execute(func(tx *phoebedb.Tx) error {
			for i := lo; i < lo+1000 && i < n; i++ {
				if _, err := tx.Insert(table, row(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// --- point_read and point_update: table kv ----------------------------------

const (
	kvRows = 200_000
	// kvStream is each connection's stream length: more than a window of
	// point_update issues, a few seconds of point_read before it wraps.
	kvStream = 1 << 17
	kvPad    = "0123456789abcdefghijklmnopqrstuvwxyzABCD"
)

// kvInitial is column a's loaded value, so unwritten keys can be verified.
func kvInitial(id int64) int64 { return id * 7 }

func declareKV(db *phoebedb.DB) error {
	if err := db.CreateTable("kv", phoebedb.NewSchema(
		phoebedb.Column{Name: "id", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "a", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "b", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "pad", Type: phoebedb.TString},
	)); err != nil {
		return err
	}
	return db.CreateIndex("kv", "kv_pk", []string{"id"}, true)
}

func loadKV(db *phoebedb.DB, shrink int) error {
	err := loadRows(db, "kv", kvRows/shrink, func(i int) phoebedb.Row {
		id := int64(i + 1)
		return phoebedb.Row{phoebedb.Int(id), phoebedb.Int(kvInitial(id)), phoebedb.Int(int64(i % 1000)), phoebedb.Str(kvPad)}
	})
	if err != nil {
		return err
	}
	return db.Checkpoint()
}

func pointReadScripts(seed int64, shrink int) []script {
	out := make([]script, connections)
	for c := range out {
		r := rand.New(rand.NewSource(seed*connections + int64(c)))
		s := &stmtScript{table: "kv", pk: "kv_pk", ops: make([]stmtOp, kvStream/shrink)}
		for i := range s.ops {
			id := 1 + r.Int63n(int64(kvRows/shrink))
			ids := strconv.FormatInt(id, 10)
			s.ops[i] = stmtOp{q: "SELECT * FROM kv WHERE id = " + ids, kind: opRead, key: id, w0: ids}
		}
		out[c] = s
	}
	return out
}

// pointUpdateScripts gives connection c the keys congruent to c, so the
// last value written to a key is known from that connection's stream alone.
func pointUpdateScripts(seed int64, shrink int) []script {
	out := make([]script, connections)
	for c := range out {
		r := rand.New(rand.NewSource(seed*connections + int64(c)))
		s := &stmtScript{table: "kv", pk: "kv_pk", ops: make([]stmtOp, kvStream/shrink)}
		for i := range s.ops {
			id := 1 + int64(c) + connections*r.Int63n(int64(kvRows/shrink/connections))
			val := r.Int63n(1_000_000_000)
			s.ops[i] = stmtOp{
				q:    "UPDATE kv SET a = " + strconv.FormatInt(val, 10) + " WHERE id = " + strconv.FormatInt(id, 10),
				kind: opUpdate, key: id, val: val,
			}
		}
		out[c] = s
	}
	return out
}

// verifyLastWrites reads back a sample of each connection's keys and
// compares column a with the last value that connection wrote (or the
// loaded value for a key it never reached).
func verifyLastWrites(e *env, scripts []script, pos []int) error {
	for c, sc := range scripts {
		s := sc.(*stmtScript)
		last := make(map[int64]int64)
		from := pos[c] - len(s.ops)
		if from < 0 {
			from = 0
		}
		for p := from; p < pos[c]; p++ {
			op := &s.ops[p%len(s.ops)]
			last[op.key] = op.val
		}
		r := rand.New(rand.NewSource(int64(pos[c])))
		for n := 0; n < 1000; n++ {
			op := &s.ops[r.Intn(len(s.ops))]
			id := op.key
			if n%4 == 0 {
				id += connections // a neighbour in the same partition, maybe unwritten
			}
			want, written := last[id]
			if !written {
				want = kvInitial(id)
			}
			res, err := e.conns[c].Exec("SELECT a FROM kv WHERE id = " + strconv.FormatInt(id, 10))
			if err != nil {
				return err
			}
			if len(res.Rows) == 0 {
				continue // the neighbour lies past the table's last row
			}
			if got := res.Rows[0][0]; got != strconv.FormatInt(want, 10) {
				return fmt.Errorf("kv %d: a = %s, last write was %d", id, got, want)
			}
		}
	}
	return nil
}

// --- cold_read: table big ---------------------------------------------------

const (
	bigRows   = 400_000
	bigFrozen = 300_000
	// bigBuffer is Options.BufferBytes: a third of the ~50 MiB the 100k
	// unfrozen rows occupy as 32 KiB pages.
	bigBuffer = 16 << 20
	// scanSpan is the width of a range aggregate in seq values (= rows).
	scanSpan = 4096
	// scanEvery makes one operation in this many a range aggregate, the
	// rest point reads. The share was lowered from 1 in 10 until scans took
	// 30-50 % of the window's busy time: a range over frozen rows
	// decompresses every block of the segment it falls in and costs
	// ~60 ms on average, a point read ~0.2 ms. A fixed spacing, not a coin
	// per operation, so that every window holds the same share of them.
	// At this rate every unfrozen page is touched more often than the
	// pool's sweep halves its access count, so the pool evicts nothing and
	// stays above its budget; rarer scans (1 in 2400 and beyond) do make it
	// evict, but then write_bytes_per_op follows the eviction count, which
	// spread 59 % over ten runs (README, "How the scan share was fixed").
	scanEvery = 480
	bigStream = 100 * scanEvery
	// Column positions in big.
	bigSeq  = 1
	bigHits = 3
)

func declareBig(db *phoebedb.DB) error {
	if err := db.CreateTable("big", phoebedb.NewSchema(
		phoebedb.Column{Name: "id", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "seq", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "score", Type: phoebedb.TFloat64},
		phoebedb.Column{Name: "hits", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "tag", Type: phoebedb.TString},
	)); err != nil {
		return err
	}
	return db.CreateIndex("big", "big_pk", []string{"id"}, true)
}

func loadBig(db *phoebedb.DB, shrink int) error {
	tags := make([]string, 251)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag-%03d-%s", i, kvPad+kvPad[:12])
	}
	// seq follows insertion order, so zone maps can prune on it.
	err := loadRows(db, "big", bigRows/shrink, func(i int) phoebedb.Row {
		return phoebedb.Row{phoebedb.Int(int64(i + 1)), phoebedb.Int(int64(i)),
			phoebedb.Float(float64(i % 1000)), phoebedb.Int(int64(i % 100)), phoebedb.Str(tags[i%len(tags)])}
	})
	if err != nil {
		return err
	}
	// Freezing takes pages whose UNDO twins are gone; one GC round after
	// the load releases them all.
	db.CollectGarbage()
	for frozen := 0; frozen < bigFrozen/shrink; {
		n, err := db.Freeze(64, ^uint32(0))
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("freeze stopped at %d of %d rows", frozen, bigFrozen/shrink)
		}
		frozen += n
	}
	if _, err := db.CompactCold(); err != nil {
		return err
	}
	return db.Checkpoint()
}

func coldReadScripts(seed int64, shrink int) []script {
	rows := int64(bigRows / shrink)
	out := make([]script, connections)
	for c := range out {
		r := rand.New(rand.NewSource(seed*connections + int64(c)))
		s := &stmtScript{table: "big", pk: "big_pk", ops: make([]stmtOp, bigStream/shrink)}
		phase := r.Intn(scanEvery)
		for i := range s.ops {
			if i%scanEvery != phase {
				id := 1 + r.Int63n(rows)
				ids := strconv.FormatInt(id, 10)
				s.ops[i] = stmtOp{q: "SELECT * FROM big WHERE id = " + ids, kind: opRead, key: id, w0: ids}
				continue
			}
			lo := r.Int63n(rows - scanSpan + 1)
			var sum int64
			for v := lo; v < lo+scanSpan; v++ {
				sum += v % 100
			}
			s.ops[i] = stmtOp{
				q: "SELECT count(*), sum(hits) FROM big WHERE seq BETWEEN " + strconv.FormatInt(lo, 10) +
					" AND " + strconv.FormatInt(lo+scanSpan-1, 10),
				kind: opScan, key: lo, w0: strconv.Itoa(scanSpan), w1: strconv.FormatInt(sum, 10),
			}
		}
		out[c] = s
	}
	return out
}

// --- tpcc -------------------------------------------------------------------

// tpccStream is each terminal's stream length, several windows' worth.
const tpccStream = 1 << 14

func tpccScale() tpcc.Scale { return tpcc.Medium(connections) }

func declareTPCC(db *phoebedb.DB) error { return tpcc.Declare(adapter.Phoebe{DB: db}) }

func loadTPCC(db *phoebedb.DB, _ int) error {
	if err := tpcc.LoadSeeded(adapter.Phoebe{DB: db}, tpccScale(), 0, 42); err != nil {
		return err
	}
	return db.Checkpoint()
}

func tpccScripts(seed int64, shrink int) []script {
	gate := new(sync.RWMutex)
	out := make([]script, connections)
	for c := range out {
		r := rand.New(rand.NewSource(seed*connections + int64(c)))
		out[c] = &tpccScript{scale: tpccScale(), gate: gate,
			txns: genTPCC(r, tpccScale(), int64(c)+1, tpccStream/shrink)}
	}
	return out
}

func verifyTPCC(e *env, _ []script, _ []int) error {
	return tpcc.CheckConsistency(adapter.Phoebe{DB: e.db}, tpccScale())
}

// Reads are checked answer by answer inside wire; nothing is left to verify.
func verifyNothing(*env, []script, []int) error { return nil }

var workloads = []*workload{
	{
		name: "tpcc", depth: 1, setupReps: 15, checkpoints: true, mixed: true, ladderOps: 1500, rateHint: 2000,
		sizes:   map[string]int64{"warehouses": connections, "districts_per_wh": 4, "customers_per_district": 300, "items": 2000},
		declare: declareTPCC,
		load:    loadTPCC,
		scripts: tpccScripts,
		verify:  verifyTPCC,
	},
	{
		name: "point_read", depth: 32, setupReps: 3, ladderOps: 20000, rateHint: 150000,
		sizes:   map[string]int64{"rows": kvRows},
		declare: declareKV,
		load:    loadKV,
		scripts: pointReadScripts,
		verify:  verifyNothing,
	},
	{
		name: "point_update", depth: 1, setupReps: 3, ladderOps: 6000, rateHint: 8000,
		sizes:   map[string]int64{"rows": kvRows},
		declare: declareKV,
		load:    loadKV,
		scripts: pointUpdateScripts,
		verify:  verifyLastWrites,
	},
	{
		name: "cold_read", depth: 8, setupReps: 1, bufferBytes: bigBuffer, ladderOps: 5000, rateHint: 100000,
		sizes:   map[string]int64{"rows": bigRows, "frozen_rows": bigFrozen, "scan_every": scanEvery, "scan_span_rows": scanSpan},
		declare: declareBig,
		load:    loadBig,
		restart: true,
		scripts: coldReadScripts,
		verify:  verifyNothing,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
