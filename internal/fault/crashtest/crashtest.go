// Package crashtest is the crash-recovery harness over the fault package:
// it drives a concurrent workload against a real engine, kills it
// mid-operation at a chosen failpoint site (an in-process "crash" — the
// engine is abandoned without Close, exactly as a killed process leaves
// it), reopens the directory, runs recovery, and verifies the durability
// contract:
//
//   - every transaction acknowledged committed is present,
//   - no effect of an unacknowledged or rolled-back transaction is
//     visible, except transactions in flight at the crash instant, which
//     may surface either fully applied or not at all (atomically),
//   - secondary indexes agree exactly with the base table,
//   - a recovered engine accepts and durably logs new transactions.
//
// Run covers the key/value workload over every site in
// fault.CrashSites(); TPCCCrash crashes a seeded TPC-C run and validates
// the benchmark's consistency conditions after recovery.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/rel"
	"phoebedb/internal/tpcc"
	"phoebedb/internal/txn"
)

// Config configures one crash-recovery run.
type Config struct {
	// Dir is the database directory (use a fresh temp dir per run).
	Dir string
	// Site is the failpoint to crash at, one of fault.CrashSites(). The
	// site's prefix selects how the crash is provoked: "wal." sites fire
	// from commit flushes inside the concurrent workload, "checkpoint."
	// sites from an explicit Checkpoint call after the workload quiesces,
	// "catalog." sites from a CREATE TABLE after it quiesces, and
	// "buffer."/"storage." sites from forced buffer-pool maintenance.
	Site string
	// Workers is the number of concurrent writer goroutines (default 4).
	Workers int
	// OpsPerWorker bounds each worker's transaction attempts (default 400).
	OpsPerWorker int
	// CrashAfter arms workload sites with panic@N so some commits succeed
	// before the crash (default 25).
	CrashAfter int
	// IDsPerWorker is each worker's private key-range size (default 64).
	IDsPerWorker int
	// Seed makes the workload deterministic; report it on failure.
	Seed int64
	// WarmCheckpoint takes a successful checkpoint between the workload
	// phases, so recovery exercises the checkpoint-image path (and, for
	// "checkpoint." sites, the crashing checkpoint is the second one).
	WarmCheckpoint bool
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

// Report summarizes a successful run.
type Report struct {
	// Acked counts transactions acknowledged committed before the crash.
	Acked int
	// Ambiguous counts transactions whose outcome the crash left unknown
	// (in flight, or commit returned an error after the record may have
	// become durable).
	Ambiguous int
	// Replayed is the number of WAL records redone at recovery.
	Replayed int
	// Rows is the row count visible after recovery.
	Rows int
}

// idState is the harness's model of one key: present at a version, or
// absent (the zero value — also the state of a never-inserted key).
type idState struct {
	exists bool
	ver    int64
}

// pendingOp is an operation whose outcome the crash left ambiguous.
type pendingOp struct {
	op  byte // 'i' insert, 'u' update, 'd' delete
	ver int64
}

// worker owns a disjoint key range, so only injected faults — never
// harness-induced conflicts — can abort its transactions.
type worker struct {
	slot int
	base int64
	n    int64
	rng  *rand.Rand

	acked    map[int64]idState
	verCtr   map[int64]int64 // versions consumed, including rolled-back ones
	poisoned map[int64]pendingOp
	inf      struct {
		active bool
		id     int64
		op     byte
		ver    int64
	}
	ackedTxns int
	err       error // harness invariant violation (not an injected fault)
}

func newWorker(i int, cfg Config) *worker {
	return &worker{
		slot:     i,
		base:     int64(i) * int64(cfg.IDsPerWorker),
		n:        int64(cfg.IDsPerWorker),
		rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*104729)),
		acked:    make(map[int64]idState),
		verCtr:   make(map[int64]int64),
		poisoned: make(map[int64]pendingOp),
	}
}

// poison records the in-flight operation as ambiguous: verification will
// accept the key in either its pre- or post-operation state, and the
// worker never touches the key again (a later success would collapse the
// ambiguity, which the model does not track).
func (w *worker) poison() {
	if w.inf.active {
		w.poisoned[w.inf.id] = pendingOp{op: w.inf.op, ver: w.inf.ver}
		w.inf.active = false
	}
}

// padFor derives the payload from the key and version, so verification
// detects corrupted or mixed-version rows, not just wrong versions.
func padFor(id, ver int64) string {
	return fmt.Sprintf("pad-%d-%d-%s", id, ver, strings.Repeat("x", 160))
}

// step runs one transaction. It reports whether an injected crash fired.
func (w *worker) step(e *core.Engine) (crashed bool) {
	var id int64 = -1
	for try := 0; try < 8; try++ {
		cand := w.base + w.rng.Int63n(w.n)
		if _, bad := w.poisoned[cand]; !bad {
			id = cand
			break
		}
	}
	if id < 0 {
		return false
	}
	st := w.acked[id]
	op := byte('i')
	if st.exists {
		if w.rng.Intn(8) == 0 {
			op = 'd'
		} else {
			op = 'u'
		}
	}
	// Version numbers are consumed even by attempts that roll back, so a
	// version can never be reused: any version visible after recovery that
	// is neither acked nor ambiguous is proof of a lost rollback.
	ver := w.verCtr[id] + 1
	w.verCtr[id] = ver
	w.inf.active, w.inf.id, w.inf.op, w.inf.ver = true, id, op, ver

	defer func() {
		if r := recover(); r != nil {
			if fault.IsCrash(r) {
				w.poison()
				crashed = true
				return
			}
			panic(r)
		}
	}()

	tx := e.Begin(w.slot, txn.ReadCommitted, nil, nil, nil)
	var opErr error
	switch op {
	case 'i':
		_, opErr = tx.Insert("kv", rel.Row{rel.Int(id), rel.Int(ver), rel.Str(padFor(id, ver))})
	default:
		rid, _, ok, gerr := tx.GetByIndex("kv", "kv_id", rel.Int(id))
		switch {
		case gerr != nil:
			opErr = gerr
		case !ok:
			tx.Rollback()
			w.inf.active = false
			w.err = fmt.Errorf("crashtest: acked id %d (ver %d) not visible before crash", id, st.ver)
			return false
		case op == 'u':
			opErr = tx.Update("kv", rid, map[string]rel.Value{
				"ver": rel.Int(ver), "pad": rel.Str(padFor(id, ver)),
			})
		default:
			opErr = tx.Delete("kv", rid)
		}
	}
	if opErr != nil {
		// Failed before a commit record could exist: a clean rollback.
		// The version is consumed but must never become visible.
		tx.Rollback()
		w.inf.active = false
		return false
	}
	if err := tx.Commit(); err != nil {
		// A commit error is ambiguous — the commit record may have reached
		// the disk before the failure (e.g. a torn fsync acknowledgment).
		w.poison()
		return false
	}
	w.inf.active = false
	if op == 'd' {
		w.acked[id] = idState{}
	} else {
		w.acked[id] = idState{exists: true, ver: ver}
	}
	w.ackedTxns++
	return false
}

func kvSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "ver", Type: rel.TInt64},
		rel.Column{Name: "pad", Type: rel.TString},
	)
}

func openEngine(dir string, slots int, bufBytes int64) (*core.Engine, error) {
	e, err := core.Open(core.Config{
		Dir:         dir,
		Slots:       slots,
		WALSync:     true,
		BufferBytes: bufBytes,
		PageCap:     16,
		LockTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if _, err := e.CreateTable("kv", kvSchema()); err != nil {
		return nil, err
	}
	if _, err := e.CreateIndex("kv", "kv_id", []string{"id"}, true); err != nil {
		return nil, err
	}
	if _, err := e.CreateIndex("kv", "kv_ver", []string{"ver"}, false); err != nil {
		return nil, err
	}
	return e, nil
}

// runWorkload drives every worker for up to ops transactions each and
// reports whether an injected crash fired anywhere.
func runWorkload(e *core.Engine, workers []*worker, ops int) bool {
	var crashed atomic.Bool
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < ops && !crashed.Load() && w.err == nil; i++ {
				if w.step(e) {
					crashed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return crashed.Load()
}

// crashAt runs fn, converting an injected CrashPanic into crashed=true.
func crashAt(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if fault.IsCrash(r) {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	return false, fn()
}

// Run executes one full crash-recovery cycle for cfg.Site. On success the
// report summarizes what was exercised; any contract violation is an
// error (include cfg.Seed when reporting it).
func Run(cfg Config) (Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 400
	}
	if cfg.CrashAfter <= 0 {
		cfg.CrashAfter = 25
	}
	if cfg.IDsPerWorker <= 0 {
		cfg.IDsPerWorker = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var rep Report
	fault.Reset()
	defer fault.Reset()

	// Maintenance-site runs use a tiny buffer budget so eviction has work;
	// nothing calls Maintain until the harness forces it.
	bufBytes := int64(256 << 20)
	maint := strings.HasPrefix(cfg.Site, "buffer.") || strings.HasPrefix(cfg.Site, "storage.")
	if maint {
		bufBytes = 4 << 10
	}
	e, err := openEngine(cfg.Dir, cfg.Workers+1, bufBytes)
	if err != nil {
		return rep, err
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = newWorker(i, cfg)
	}

	// Phase 1: build up state with no faults armed.
	phase1 := cfg.OpsPerWorker / 2
	runWorkload(e, workers, phase1)
	if cfg.WarmCheckpoint {
		if err := e.Checkpoint(); err != nil {
			return rep, fmt.Errorf("crashtest: warm checkpoint: %w", err)
		}
		cfg.Logf("crashtest: warm checkpoint taken")
	}

	// Phase 2: provoke the crash, per site class.
	switch {
	case strings.HasPrefix(cfg.Site, "wal."):
		spec := fmt.Sprintf("panic@%d", cfg.CrashAfter)
		if cfg.Site == fault.WALTornWrite {
			spec = fmt.Sprintf("torn(3)@%d", cfg.CrashAfter)
		}
		if err := fault.Enable(cfg.Site, spec); err != nil {
			return rep, err
		}
		if !runWorkload(e, workers, cfg.OpsPerWorker-phase1) {
			return rep, fmt.Errorf("crashtest: site %s never fired during the workload", cfg.Site)
		}
	case strings.HasPrefix(cfg.Site, "checkpoint."):
		runWorkload(e, workers, cfg.OpsPerWorker-phase1)
		if err := fault.Enable(cfg.Site, "panic"); err != nil {
			return rep, err
		}
		crashed, cerr := crashAt(e.Checkpoint)
		if !crashed {
			return rep, fmt.Errorf("crashtest: checkpoint did not crash at %s (err=%v)", cfg.Site, cerr)
		}
	case strings.HasPrefix(cfg.Site, "sql."): // crash inside an online index backfill
		if err := fault.Enable(cfg.Site, fmt.Sprintf("panic@%d", cfg.CrashAfter)); err != nil {
			return rep, err
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorkload(e, workers, cfg.OpsPerWorker-phase1)
		}()
		// Build a third index over the busy table on the spare slot; the
		// failpoint fires per backfilled row. Indexes live in memory, so
		// the "crash" must leave only the recoverable table state behind.
		crashed, cerr := crashAt(func() error {
			_, err := e.CreateIndexOnline("kv", "kv_pad", []string{"pad"}, false,
				func(fn func(tx *core.Tx) error) error {
					tx := e.Begin(cfg.Workers, txn.ReadCommitted, nil, nil, nil)
					if err := fn(tx); err != nil {
						tx.Rollback()
						return err
					}
					return tx.Commit()
				})
			return err
		})
		wg.Wait()
		if !crashed {
			return rep, fmt.Errorf("crashtest: backfill did not crash at %s (err=%v)", cfg.Site, cerr)
		}
	case strings.HasPrefix(cfg.Site, "catalog."): // crash between a catalog record's flush and publication
		runWorkload(e, workers, cfg.OpsPerWorker-phase1)
		if err := fault.Enable(cfg.Site, "panic"); err != nil {
			return rep, err
		}
		crashed, cerr := crashAt(func() error {
			_, err := e.CreateTable("late", kvSchema())
			return err
		})
		if !crashed {
			return rep, fmt.Errorf("crashtest: CREATE TABLE did not crash at %s (err=%v)", cfg.Site, cerr)
		}
	case strings.HasPrefix(cfg.Site, "frozen."): // crash inside cold-tier maintenance
		// Quiesce the workload, then demote pages into cold segments in
		// small freeze/compact/checkpoint rounds so segments accumulate
		// across levels and earlier rounds are already durable when the
		// crash fires: panic@3 lands on the third segment write, the third
		// merge, or the third manifest swap. Cold durability rides the
		// checkpoint (freezing writes no WAL), so recovery must restore the
		// exact frozen/hot split the last completed checkpoint captured.
		runWorkload(e, workers, cfg.OpsPerWorker-phase1)
		for i := 0; i < 3; i++ {
			e.CollectGarbage() // erase tombstones so page prefixes freeze
		}
		if t, terr := e.Table("kv"); terr == nil {
			t.Frozen.Fanout = 2 // merge every two segments: reach L2 fast
		}
		if err := fault.Enable(cfg.Site, "panic@3"); err != nil {
			return rep, err
		}
		crashed, cerr := crashAt(func() error {
			for i := 0; i < 64; i++ {
				if _, err := e.FreezeTables(1, ^uint32(0)); err != nil {
					return err
				}
				if _, err := e.CompactColdAll(); err != nil {
					return err
				}
				if err := e.Checkpoint(); err != nil {
					return err
				}
			}
			return nil
		})
		if !crashed {
			return rep, fmt.Errorf("crashtest: cold maintenance never hit %s (err=%v)", cfg.Site, cerr)
		}
	default: // buffer.* / storage.*: crash inside forced page-swap maintenance
		runWorkload(e, workers, cfg.OpsPerWorker-phase1)
		for i := 0; i < 3; i++ {
			e.CollectGarbage() // drain UNDO so frames are unpinned and evictable
		}
		if err := fault.Enable(cfg.Site, "panic"); err != nil {
			return rep, err
		}
		crashed, _ := crashAt(func() error {
			for i := 0; i < 400; i++ {
				e.Pool.Maintain(0)
				e.CollectGarbage()
			}
			return nil
		})
		if !crashed {
			return rep, fmt.Errorf("crashtest: maintenance never hit %s", cfg.Site)
		}
	}
	for _, w := range workers {
		if w.err != nil {
			return rep, w.err
		}
		rep.Acked += w.ackedTxns
		rep.Ambiguous += len(w.poisoned)
	}
	fault.Reset()
	// Abandon e without Close — the crash left it mid-flight on purpose.

	// Reopen, recover, verify.
	e2, err := openEngine(cfg.Dir, cfg.Workers+1, 256<<20)
	if err != nil {
		return rep, err
	}
	rep.Replayed, err = e2.Recover()
	if err != nil {
		return rep, fmt.Errorf("crashtest: recover: %w", err)
	}
	if strings.HasPrefix(cfg.Site, "catalog.") {
		// Durable before the crash, never visible: back, and empty.
		if t, err := e2.Table("late"); err != nil || t.Store.NumPages() != 0 {
			return rep, fmt.Errorf("crashtest: table logged before the crash at %s not recovered empty (%v)", cfg.Site, err)
		}
	}
	if strings.HasPrefix(cfg.Site, "frozen.") {
		// The run is only meaningful if the last completed checkpoint's
		// manifest actually restored cold segments.
		if st := e2.ColdStats(); st.Segments == 0 {
			return rep, fmt.Errorf("crashtest: no cold segments survived recovery at %s", cfg.Site)
		}
	}
	got, err := readAll(e2, cfg.Workers)
	if err != nil {
		return rep, err
	}
	rep.Rows = len(got)
	if err := checkIndexes(e2, cfg.Workers, got); err != nil {
		return rep, err
	}
	for _, ixName := range []string{"kv_id", "kv_ver"} {
		if err := VerifyIndex(e2, cfg.Workers, "kv", ixName); err != nil {
			return rep, err
		}
	}
	if err := checkState(workers, got); err != nil {
		return rep, err
	}
	cfg.Logf("crashtest: %s recovered: acked=%d ambiguous=%d replayed=%d rows=%d",
		cfg.Site, rep.Acked, rep.Ambiguous, rep.Replayed, rep.Rows)

	// The recovered engine must accept new commits, and those must survive
	// another restart — this exercises appending after a truncated torn
	// tail end-to-end.
	postBase := int64(cfg.Workers*cfg.IDsPerWorker) + 1_000_000
	const postRows = 8
	for i := int64(0); i < postRows; i++ {
		id := postBase + i
		tx := e2.Begin(cfg.Workers, txn.ReadCommitted, nil, nil, nil)
		if _, err := tx.Insert("kv", rel.Row{rel.Int(id), rel.Int(1), rel.Str(padFor(id, 1))}); err != nil {
			tx.Rollback()
			return rep, fmt.Errorf("crashtest: post-recovery insert: %w", err)
		}
		if err := tx.Commit(); err != nil {
			return rep, fmt.Errorf("crashtest: post-recovery commit: %w", err)
		}
	}
	if err := e2.Close(); err != nil {
		return rep, err
	}

	e3, err := openEngine(cfg.Dir, cfg.Workers+1, 256<<20)
	if err != nil {
		return rep, err
	}
	defer e3.Close()
	if _, err := e3.Recover(); err != nil {
		return rep, fmt.Errorf("crashtest: second recover: %w", err)
	}
	got3, err := readAll(e3, cfg.Workers)
	if err != nil {
		return rep, err
	}
	for i := int64(0); i < postRows; i++ {
		id := postBase + i
		g, ok := got3[id]
		if !ok || g.ver != 1 {
			return rep, fmt.Errorf("crashtest: post-recovery row %d lost after restart", id)
		}
		delete(got3, id)
	}
	if err := checkState(workers, got3); err != nil {
		return rep, fmt.Errorf("crashtest: after second restart: %w", err)
	}
	return rep, nil
}

// gotRow is one recovered row.
type gotRow struct {
	rid rel.RowID
	ver int64
	pad string
}

// readAll scans the kv table in one read-only transaction on the spare
// slot, failing on duplicate keys (a sign of double replay).
func readAll(e *core.Engine, spareSlot int) (map[int64]gotRow, error) {
	tx := e.Begin(spareSlot, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit() // read-only: no WAL traffic
	out := make(map[int64]gotRow)
	var dupErr error
	err := tx.ScanTable("kv", func(rid rel.RowID, row rel.Row) bool {
		id := row[0].I
		if prev, dup := out[id]; dup {
			dupErr = fmt.Errorf("crashtest: id %d recovered twice (rids %d and %d)", id, prev.rid, rid)
			return false
		}
		out[id] = gotRow{rid: rid, ver: row[1].I, pad: row[2].S}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, dupErr
}

// checkIndexes verifies both secondary indexes agree exactly with the
// base table: every row is reachable through the unique id index and the
// non-unique ver index, with matching contents.
func checkIndexes(e *core.Engine, spareSlot int, got map[int64]gotRow) error {
	tx := e.Begin(spareSlot, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit()
	for id, g := range got {
		rid, row, ok, err := tx.GetByIndex("kv", "kv_id", rel.Int(id))
		if err != nil {
			return err
		}
		if !ok || rid != g.rid || row[1].I != g.ver {
			return fmt.Errorf("crashtest: unique index disagrees on id %d: ok=%v rid=%d want %d", id, ok, rid, g.rid)
		}
		found := false
		err = tx.ScanIndex("kv", "kv_ver", []rel.Value{rel.Int(g.ver)}, func(r rel.RowID, _ rel.Row) bool {
			if r == g.rid {
				found = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("crashtest: ver index missing id %d (ver %d)", id, g.ver)
		}
	}
	return nil
}

// VerifyIndex checks that the named index and a full table scan agree
// row-for-row: every visible base row is reachable through the index
// under its current key values, the index emits no row twice and nothing
// the table scan did not produce, and the indexed column values match.
// spareSlot must not be running any other transaction. Exported so
// backfill and recovery tests outside this package can reuse one
// consistency definition.
func VerifyIndex(e *core.Engine, spareSlot int, table, index string) error {
	tx := e.Begin(spareSlot, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit() // read-only: no WAL traffic
	return VerifyIndexIn(tx, e, table, index)
}

// VerifyIndexIn is VerifyIndex on a caller-supplied transaction, for
// callers whose slots are managed elsewhere (e.g. a DB session).
func VerifyIndexIn(tx *core.Tx, e *core.Engine, table, index string) error {
	t, err := e.Table(table)
	if err != nil {
		return err
	}
	ix := t.Index(index)
	if ix == nil {
		return fmt.Errorf("crashtest: no index %q on %q", index, table)
	}
	base := make(map[rel.RowID]rel.Row)
	err = tx.ScanTable(table, func(rid rel.RowID, row rel.Row) bool {
		base[rid] = row.Clone()
		return true
	})
	if err != nil {
		return err
	}

	// Index → table: full enumeration, each visible rid exactly once,
	// emitted row matching the base copy on the indexed columns.
	seen := make(map[rel.RowID]bool, len(base))
	var scanErr error
	err = tx.ScanIndex(table, index, nil, func(rid rel.RowID, row rel.Row) bool {
		if seen[rid] {
			scanErr = fmt.Errorf("crashtest: index %q emitted rid %d twice", index, rid)
			return false
		}
		seen[rid] = true
		b, ok := base[rid]
		if !ok {
			scanErr = fmt.Errorf("crashtest: index %q emitted rid %d absent from table scan", index, rid)
			return false
		}
		for _, c := range ix.Cols {
			if !row[c].Equal(b[c]) {
				scanErr = fmt.Errorf("crashtest: index %q rid %d col %d: index row %v, table row %v",
					index, rid, c, row[c], b[c])
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}

	// Table → index: every base row must be found probing its own key.
	vals := make([]rel.Value, len(ix.Cols))
	for rid, row := range base {
		if !seen[rid] {
			return fmt.Errorf("crashtest: index %q is missing rid %d", index, rid)
		}
		for i, c := range ix.Cols {
			vals[i] = row[c]
		}
		found := false
		err = tx.ScanIndex(table, index, vals, func(r rel.RowID, _ rel.Row) bool {
			if r == rid {
				found = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("crashtest: index %q does not reach rid %d under its key", index, rid)
		}
	}
	return nil
}

// checkState verifies every recovered key is in a state the workload
// could have left durable, and that nothing else survived.
func checkState(workers []*worker, got map[int64]gotRow) error {
	rest := make(map[int64]gotRow, len(got))
	for k, v := range got {
		rest[k] = v
	}
	for _, w := range workers {
		for id := w.base; id < w.base+w.n; id++ {
			st := w.acked[id] // zero value = never present
			g, present := rest[id]
			delete(rest, id)
			allowed := []idState{st}
			if p, ok := w.poisoned[id]; ok {
				if p.op == 'd' {
					allowed = append(allowed, idState{})
				} else {
					allowed = append(allowed, idState{exists: true, ver: p.ver})
				}
			}
			match := false
			for _, s := range allowed {
				if s.exists == present && (!present || s.ver == g.ver) {
					match = true
					break
				}
			}
			if !match {
				return fmt.Errorf("crashtest: id %d recovered as (present=%v ver=%d), allowed states %+v",
					id, present, g.ver, allowed)
			}
			if present && g.pad != padFor(id, g.ver) {
				return fmt.Errorf("crashtest: id %d payload corrupted at ver %d", id, g.ver)
			}
		}
	}
	if len(rest) > 0 {
		for id, g := range rest {
			return fmt.Errorf("crashtest: phantom row id %d ver %d survived recovery", id, g.ver)
		}
	}
	return nil
}

// --- TPC-C crash harness ------------------------------------------------------

// ErrCrashed is returned by EngineBackend.Execute once an injected crash
// has fired; the driver counts it as an error and the run drains.
var ErrCrashed = errors.New("crashtest: engine crashed")

// EngineBackend adapts a bare core.Engine to tpcc.Backend for crash runs:
// transactions run on a pool of task slots, and an injected CrashPanic
// retires the slot mid-transaction (its state is abandoned, like a killed
// process's) and fails the run's remaining submissions fast.
type EngineBackend struct {
	E     *core.Engine
	slots chan int
	done  chan struct{}
	once  sync.Once
}

// NewEngineBackend wraps e with a pool of the first `slots` task slots.
func NewEngineBackend(e *core.Engine, slots int) *EngineBackend {
	b := &EngineBackend{E: e, slots: make(chan int, slots), done: make(chan struct{})}
	for i := 0; i < slots; i++ {
		b.slots <- i
	}
	return b
}

// Crashed reports whether an injected crash has fired.
func (b *EngineBackend) Crashed() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// CreateTable implements tpcc.Backend.
func (b *EngineBackend) CreateTable(name string, schema *rel.Schema) error {
	_, err := b.E.CreateTable(name, schema)
	return err
}

// CreateIndex implements tpcc.Backend.
func (b *EngineBackend) CreateIndex(table, index string, cols []string, unique bool) error {
	_, err := b.E.CreateIndex(table, index, cols, unique)
	return err
}

// Execute implements tpcc.Backend.
func (b *EngineBackend) Execute(fn func(c tpcc.Client) error) (err error) {
	var slot int
	select {
	case slot = <-b.slots:
	case <-b.done:
		return ErrCrashed
	}
	defer func() {
		if r := recover(); r != nil {
			if fault.IsCrash(r) {
				// The slot's transaction is torn mid-flight; retire the slot.
				b.once.Do(func() { close(b.done) })
				err = ErrCrashed
				return
			}
			panic(r)
		}
		b.slots <- slot
	}()
	if b.Crashed() {
		return ErrCrashed
	}
	tx := b.E.Begin(slot, txn.ReadCommitted, nil, nil, nil)
	if ferr := fn(tx); ferr != nil {
		tx.Rollback()
		return ferr
	}
	return tx.Commit()
}

// TPCCCrash loads a small seeded TPC-C database, crashes a concurrent
// workload at the given WAL site after `after` firings, then reopens the
// directory, recovers, and runs the benchmark's consistency conditions.
func TPCCCrash(dir string, seed int64, site string, after int) error {
	fault.Reset()
	defer fault.Reset()
	const terminals = 4
	open := func() (*core.Engine, *EngineBackend, error) {
		e, err := core.Open(core.Config{
			Dir:         dir,
			Slots:       terminals + 1,
			WALSync:     true,
			LockTimeout: time.Second,
		})
		if err != nil {
			return nil, nil, err
		}
		b := NewEngineBackend(e, terminals)
		if err := tpcc.Declare(b); err != nil {
			return nil, nil, err
		}
		return e, b, nil
	}

	_, b, err := open()
	if err != nil {
		return err
	}
	s := tpcc.Small(2)
	if err := tpcc.LoadSeeded(b, s, 200, seed); err != nil {
		return err
	}
	if err := fault.Enable(site, fmt.Sprintf("panic@%d", after)); err != nil {
		return err
	}
	res := tpcc.Run(b, tpcc.DriverConfig{Scale: s, Terminals: terminals, Transactions: 3000, Seed: seed})
	if !b.Crashed() {
		return fmt.Errorf("crashtest: tpcc run never crashed at %s (completed %d txns)", site, res.Total())
	}
	fault.Reset()
	// Abandon the crashed engine; reopen and validate.
	e2, b2, err := open()
	if err != nil {
		return err
	}
	defer e2.Close()
	if _, err := e2.Recover(); err != nil {
		return fmt.Errorf("crashtest: tpcc recover: %w", err)
	}
	return tpcc.CheckConsistency(b2, s)
}
