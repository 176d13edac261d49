// Package wal implements PhoebeDB's parallel write-ahead log with Remote
// Flush Avoidance (§8).
//
// Following the "Non-Force, Steal" principle, committed transactions need
// not have their data pages flushed, and dirty pages of uncommitted
// transactions may be written out — recovery replays the log.
//
// Unlike a traditional serialized log, PhoebeDB maintains one WAL writer
// per task slot, each with a private in-memory buffer and file. Every
// record carries two sequence numbers:
//
//   - GSN (Global Sequence Number): monotonically increasing but not
//     unique; establishes a cross-writer partial order. A writer's local
//     GSN advances to max(localGSN, pageGSN)+1 whenever it logs a change to
//     a page, so any two changes to the same page are GSN-ordered.
//   - LSN (Log Sequence Number): strictly increasing within one writer.
//
// Remote Flush Avoidance decouples commit from unrelated writers: a
// transaction that only touched pages last written by its own slot (or
// whose foreign writes are already durable) commits after flushing its own
// writer. Only when it observed an unflushed change by another slot does it
// wait for the remote flush horizon.
//
// Group commit batches writers into flush groups (Options.Groups /
// Options.GroupOf; by default every writer is its own group, the original
// one-file-per-slot layout). Writers in a group share one log file and one
// fsync window: the first committer to reach the group's flush mutex
// becomes the leader and drains every member's buffer in a single
// write+fsync, while followers arriving behind it find their records
// already durable and return without touching the device. A leader that
// expects company parks for a bounded window first; a committer arriving
// meanwhile joins that leader and ends the window as soon as the batch is
// complete (see Writer.Flush). Buffers are
// trimmed only after the write and fsync succeed, so a torn or failed
// group flush never loses an acknowledged commit. GSN/LSN assignment and
// the RFA rule are per-writer and unchanged by grouping.
//
// Recovery merges all log files, orders records by GSN (stable by file,
// LSN), verifies checksums, truncates at the first torn record of each
// file, and hands the ordered stream to the engine for redo. Per-writer
// order survives the merge because a writer's records carry strictly
// increasing GSNs and drain to the file in LSN order.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/fault"
	"phoebedb/internal/metrics"
	"phoebedb/internal/park"
	"phoebedb/internal/waitevent"
)

// ErrBroken reports a write to a failed log. After any flush or fsync
// error the durable prefix of the log is unknown, so the manager fails
// stop: every subsequent flush (and therefore every commit) errors until
// the engine is restarted and recovery re-establishes a consistent prefix
// — the same posture as PostgreSQL's PANIC on WAL fsync failure.
var ErrBroken = errors.New("wal: log writer failed; restart and recover")

// RecordType enumerates log record kinds.
type RecordType uint8

const (
	// RecInsert logs a tuple insert (payload: encoded row image).
	RecInsert RecordType = iota + 1
	// RecUpdate logs an in-place update (payload: after-image delta).
	RecUpdate
	// RecDelete logs a tuple delete.
	RecDelete
	// RecCommit marks a transaction commit.
	RecCommit
	// RecAbort marks a transaction abort.
	RecAbort
	// RecCatalog logs a CREATE TABLE or CREATE INDEX (payload: the
	// definition, encoded by internal/core). It belongs to no transaction:
	// it is durable once flushed.
	RecCatalog
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCatalog:
		return "CATALOG"
	default:
		return fmt.Sprintf("REC(%d)", uint8(t))
	}
}

// Record is one WAL entry.
type Record struct {
	Type    RecordType
	GSN     uint64
	LSN     uint64
	XID     uint64
	TableID uint32
	RowID   uint64
	Writer  int32 // filled during recovery
	Payload []byte
}

// recordHeaderSize is the fixed prefix: payloadLen(4) crc(4) type(1)
// gsn(8) lsn(8) xid(8) table(4) rowid(8).
const recordHeaderSize = 4 + 4 + 1 + 8 + 8 + 8 + 4 + 8

func encodeRecord(dst []byte, r *Record) []byte {
	// The header is laid out in dst itself: a local array would escape
	// through the checksum call, one allocation per record.
	start := len(dst)
	var zero [recordHeaderSize]byte
	dst = append(dst, zero[:]...)
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(r.Payload)))
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[9:], r.GSN)
	binary.LittleEndian.PutUint64(hdr[17:], r.LSN)
	binary.LittleEndian.PutUint64(hdr[25:], r.XID)
	binary.LittleEndian.PutUint32(hdr[33:], r.TableID)
	binary.LittleEndian.PutUint64(hdr[37:], r.RowID)
	dst = append(dst, r.Payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// decodeRecord parses one record from b. It returns the record, the number
// of bytes consumed, and false if b holds no complete, checksum-valid
// record (a torn tail).
func decodeRecord(b []byte) (Record, int, bool) {
	if len(b) < recordHeaderSize {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b[0:]))
	total := recordHeaderSize + plen
	if len(b) < total {
		return Record{}, 0, false
	}
	want := binary.LittleEndian.Uint32(b[4:])
	if crc32.ChecksumIEEE(b[8:total]) != want {
		return Record{}, 0, false
	}
	r := Record{
		Type:    RecordType(b[8]),
		GSN:     binary.LittleEndian.Uint64(b[9:]),
		LSN:     binary.LittleEndian.Uint64(b[17:]),
		XID:     binary.LittleEndian.Uint64(b[25:]),
		TableID: binary.LittleEndian.Uint32(b[33:]),
		RowID:   binary.LittleEndian.Uint64(b[37:]),
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), b[recordHeaderSize:total]...)
	}
	return r, total, true
}

// Writer is one task slot's private WAL stream. Records buffer per writer;
// the bytes drain to the writer's group file during a group flush.
type Writer struct {
	id  int
	mgr *Manager
	grp *group

	mu        sync.Mutex
	buf       []byte
	lsn       uint64
	bufferGSN uint64 // highest GSN appended to buf (may be unflushed)
	// bufCommits counts RecCommit records currently in buf; the group
	// flush uses it to measure how many commits one device write retired.
	bufCommits int
	// open is true while buf ends in a record that is neither a commit nor
	// an abort: the slot is mid-transaction with unflushed records, so its
	// commit is a candidate for the next group flush. Written under mu,
	// read lock-free by committers sizing up the batch.
	open       atomic.Bool
	flushedGSN atomic.Uint64
	// appended counts total bytes ever encoded into this writer's stream.
	// Per-statement accounting differences it around a statement to charge
	// log volume to the statement that generated it.
	appended atomic.Int64
	// localGSN is the highest GSN assigned by this writer. Atomic rather
	// than owner-private: a remote commit's flushPast fast-forwards it
	// when it advances the flushed horizon past an empty buffer, so the
	// owner can never assign a GSN below an already-published horizon.
	localGSN atomic.Uint64
}

// group is one commit group: the shared log file and the flush mutex its
// members' commits convoy on.
type group struct {
	id      int
	mgr     *Manager
	members []*Writer

	// mu serializes flushes of the group. A committer that blocks here
	// while another member flushes is the group-commit win: when it gets
	// the mutex its records are usually already durable.
	mu sync.Mutex
	// leading is true while a commit leader is parked in its wait window
	// (mu released). Committers arriving meanwhile join it: they wait on
	// flushed, which every flush attempt and every leader standing down
	// broadcasts, instead of opening a window of their own.
	leading bool
	flushed sync.Cond
	// arrive wakes the parked leader before its deadline; timer is that
	// deadline, one per group since there is one leader at a time.
	arrive  chan struct{}
	timer   park.Timer
	f       *os.File
	scratch []byte      // concatenated member buffers for the single write
	parts   []flushPart // per-member drained prefix bookkeeping

	// waitCredit and sinceProbe drive the adaptive group-commit leader
	// wait (see Flush): credit is granted while flushes capture multiple
	// commit records and drains on single-commit flushes; the probe
	// counter forces one speculative wait per probeInterval flushes so a
	// group can rediscover concurrency after going serial.
	waitCredit int
	sinceProbe int
}

// flushPart records how much of one member's buffer a group flush captured:
// the first n buffered bytes and the buffer's GSN high-water mark at capture
// time. Only that prefix is trimmed (and only that horizon published) after
// the write and fsync succeed — records appended while the flush was in
// flight stay buffered with strictly greater GSNs.
type flushPart struct {
	w   *Writer
	n   int
	gsn uint64
}

// ID returns the writer's slot id.
func (w *Writer) ID() int { return w.id }

// NextGSN advances the writer's local GSN clock past pageGSN and returns
// the new GSN (the LeanStore GSN rule: max(local, page)+1).
func (w *Writer) NextGSN(pageGSN uint64) uint64 {
	for {
		cur := w.localGSN.Load()
		next := cur + 1
		if pageGSN > cur {
			next = pageGSN + 1
		}
		if w.localGSN.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// raiseLocalGSN lifts the local GSN clock to at least g.
func (w *Writer) raiseLocalGSN(g uint64) {
	for {
		cur := w.localGSN.Load()
		if g <= cur || w.localGSN.CompareAndSwap(cur, g) {
			return
		}
	}
}

// RaiseGSN lifts the writer's local GSN clock to at least g without
// touching the buffer or flushed horizons, so it is safe while
// transactions run: future records sort above g, and durability claims
// are unchanged. The base-backup horizon uses this to turn the GSN
// partial order into a clean cut — every record logged after the raise
// is strictly above the backup's horizon GSN on every writer.
func (w *Writer) RaiseGSN(g uint64) { w.raiseLocalGSN(g) }

// AdvanceGSN fast-forwards the writer's GSN clock (and flushed horizon) to
// at least g. Recovery uses this so that post-restart records sort after
// every recovered record.
func (w *Writer) AdvanceGSN(g uint64) {
	w.raiseLocalGSN(g)
	w.mu.Lock()
	if g > w.bufferGSN {
		w.bufferGSN = g
	}
	w.mu.Unlock()
	if g > w.flushedGSN.Load() {
		w.flushedGSN.Store(g)
	}
}

// Append encodes r into the writer's buffer (not yet durable), assigning
// its LSN. r.GSN must already be set by the caller via NextGSN.
func (w *Writer) Append(r *Record) {
	w.mu.Lock()
	w.lsn++
	r.LSN = w.lsn
	before := len(w.buf)
	w.buf = encodeRecord(w.buf, r)
	w.appended.Add(int64(len(w.buf) - before))
	if r.GSN > w.bufferGSN {
		w.bufferGSN = r.GSN
	}
	if r.Type == RecCommit {
		w.bufCommits++
	}
	if open := r.Type != RecCommit && r.Type != RecAbort; open != w.open.Load() {
		w.open.Store(open)
	}
	w.mu.Unlock()
}

// AppendedBytes returns the total bytes ever encoded into this writer's
// stream (durable or not) — a monotonic counter for per-statement deltas.
func (w *Writer) AppendedBytes() int64 { return w.appended.Load() }

// Flush makes every record this writer has buffered durable (fsync if the
// manager is in sync mode) and advances the writer's flushed-GSN horizon.
// It is the group-commit entry point, and every wait in it is a park with
// one waker:
//
//   - A committer that finds the group's mutex held blocks on it; when it
//     gets the mutex its records are usually already durable.
//   - A committer that becomes leader while the group expects company
//     (shouldWaitLocked: batching credit, or the periodic probe) releases
//     the mutex and parks for at most GroupCommitWait. It is woken early by
//     the committer whose arrival completes the batch — no member is left
//     holding buffered records without a commit record — or by any other
//     flush of the group.
//   - A committer that arrives while a leader is parked joins that leader:
//     it opens no window of its own and returns when the flush covering its
//     records completes.
func (w *Writer) Flush() error {
	ws := w.mgr.waits
	if ws == nil {
		return w.flushCommit(nil, nil)
	}
	// The writer id is the committing task slot's id, so the stamp lands on
	// the right slot: followers waiting for a leader's flush and the device
	// write both count as wal_flush; the leader's own wait window restamps
	// as wal_group_lead inside lead.
	seg := ws.Begin(w.id, waitevent.EvWALFlush)
	err := w.flushCommit(ws, &seg)
	ws.End(w.id, waitevent.EvWALFlush, seg)
	return err
}

// pending reports whether the writer holds records a flush has not covered.
func (w *Writer) pending() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf) > 0 || w.bufferGSN > w.flushedGSN.Load()
}

// flushCommit is Flush's body; seg is the current wait-segment start when
// wait-event stamping is on (ws non-nil), updated in place when the stamp
// switches between wal_flush and wal_group_lead.
func (w *Writer) flushCommit(ws *waitevent.Slots, seg *time.Time) error {
	g := w.grp
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if w.mgr.broken.Load() {
			return ErrBroken
		}
		if !w.pending() {
			// A flush covered us while we waited for the mutex or a leader.
			return nil
		}
		if !g.leading {
			break
		}
		// Join the parked leader. It is woken only once the batch is
		// complete, so a burst of joiners costs it one wake-up.
		if !g.anyOpen() {
			g.poke()
		}
		g.flushed.Wait()
	}
	if d := w.mgr.groupWait; d > 0 && g.shouldWaitLocked() {
		w.lead(d, ws, seg)
		if broken := w.mgr.broken.Load(); broken || !w.pending() {
			// Another flush covered the whole batch, us included, while we
			// were parked (or the log failed). The joiners wait on a flush
			// that will not come from us: let them look again.
			g.flushed.Broadcast()
			if broken {
				return ErrBroken
			}
			return nil
		}
	}
	return g.flushLocked()
}

// lead is the group-commit leader wait: before paying the fsync, park for
// a bounded window so concurrently executing transactions can reach their
// own commit points and join — the flush that follows then retires the
// whole batch under one device write. The window closes at d, or as soon
// as a joiner (or a flush from elsewhere) pokes. Parking hands the
// processor to sibling slots at once, where a thread entering fsync only
// releases it after the runtime's syscall-retake latency. Caller holds
// g.mu; lead releases it while parked and returns with it held.
func (w *Writer) lead(d time.Duration, ws *waitevent.Slots, seg *time.Time) {
	g := w.grp
	select {
	case <-g.arrive: // a poke that crossed the previous leader's deadline
	default:
	}
	g.leading = true
	w.mgr.groupWaits.Add(1)
	g.mu.Unlock()
	if ws != nil {
		*seg = ws.Switch(w.id, waitevent.EvWALFlush, waitevent.EvWALGroupLead, *seg)
	}
	early := g.timer.Wait(g.arrive, d)
	if ws != nil {
		*seg = ws.Switch(w.id, waitevent.EvWALGroupLead, waitevent.EvWALFlush, *seg)
	}
	g.mu.Lock()
	g.leading = false
	if early {
		w.mgr.groupLeadEarly.Add(1)
	}
}

// anyOpen reports whether some member holds buffered records without a
// commit record: a transaction still on its way to the commit point, worth
// keeping the leader's window open for.
func (g *group) anyOpen() bool {
	for _, w := range g.members {
		if w.open.Load() {
			return true
		}
	}
	return false
}

// poke wakes the parked leader. Caller holds g.mu and has seen g.leading.
func (g *group) poke() {
	select {
	case g.arrive <- struct{}{}:
	default: // already poked
	}
}

// probeInterval is how often (in flushes) a group speculatively pays one
// leader wait with no credit, to rediscover commit concurrency.
// waitCreditWindow is how many single-commit flushes a group keeps waiting
// after a batched one before concluding the workload went serial.
const (
	probeInterval    = 32
	waitCreditWindow = 64
)

// shouldWaitLocked decides whether the next flush leader should park for
// more commits first: yes while recent flushes batched multiple commits
// (credit), and on a periodic speculative probe otherwise — whether or not
// any other member has buffered anything yet. A serial commit stream earns
// no credit, so it pays one probe per probeInterval flushes and nothing
// else; a group of one has nobody to wait for. Caller holds g.mu.
func (g *group) shouldWaitLocked() bool {
	if len(g.members) < 2 {
		return false
	}
	if g.waitCredit > 0 {
		return true
	}
	g.sinceProbe++
	if g.sinceProbe >= probeInterval {
		g.sinceProbe = 0
		return true
	}
	return false
}

// flushLocked drains every member's buffered records to the group file in
// one write (+fsync), then trims the drained prefixes and publishes the
// flushed-GSN horizons. Caller holds g.mu. Nothing is trimmed or published
// on error: after a failed or torn flush the buffers still hold every
// unacknowledged record, so an acknowledged commit can never be lost.
// Whatever the outcome, committers that joined a leader are woken to look
// at their horizons, and a leader parked through a flush that was not its
// own (remote flush, checkpoint) is woken to find itself covered.
func (g *group) flushLocked() error {
	defer g.flushed.Broadcast()
	if g.leading {
		defer g.poke()
	}
	m := g.mgr
	if m.broken.Load() {
		return ErrBroken
	}
	g.scratch = g.scratch[:0]
	g.parts = g.parts[:0]
	commits := 0
	for _, w := range g.members {
		w.mu.Lock()
		n := len(w.buf)
		gsn := w.bufferGSN
		if n > 0 {
			g.scratch = append(g.scratch, w.buf[:n]...)
			commits += w.bufCommits
			w.bufCommits = 0
		}
		w.mu.Unlock()
		if n > 0 || gsn > w.flushedGSN.Load() {
			g.parts = append(g.parts, flushPart{w: w, n: n, gsn: gsn})
		}
	}
	// Feed the adaptive leader wait: batching multiple commits under this
	// one device write earns a credit window; a serial flush burns one.
	if commits >= 2 {
		g.waitCredit = waitCreditWindow
	} else if g.waitCredit > 0 {
		g.waitCredit--
	}
	if len(g.scratch) > 0 {
		if cut := fault.TornCut(fault.WALTornWrite, len(g.scratch)); cut > 0 {
			// Simulate a crash tearing the flush: persist a prefix that
			// ends mid-record, then die. The buffers are left intact so a
			// racing flush cannot complete the write and acknowledge a
			// commit behind the "dead" process's back (the armed site
			// would tear that flush too).
			g.f.Write(g.scratch[:len(g.scratch)-cut])
			fault.Crash(fault.WALTornWrite)
		}
		n, err := g.f.Write(g.scratch)
		if m.io != nil {
			m.io.WALWrite.Add(int64(n))
		}
		if err != nil {
			m.broken.Store(true)
			return fmt.Errorf("wal: group %d flush: %w", g.id, err)
		}
		m.flushes.Add(1)
		// Trim the written prefixes NOW, before the sync failpoints: the
		// records are in the OS's hands, and a crash injected below must
		// not let a later flush (ours or a remote-flush on a survivor's
		// behalf) write them a second time. Records appended mid-flush
		// keep their place behind the cut. A real sync failure latches
		// broken, so trimming early never drops an acked commit.
		for _, p := range g.parts {
			if p.n > 0 {
				p.w.mu.Lock()
				p.w.buf = p.w.buf[:copy(p.w.buf, p.w.buf[p.n:])]
				if len(p.w.buf) == 0 {
					p.w.open.Store(false)
				}
				p.w.mu.Unlock()
			}
		}
		skipSync := false
		if ferr := fault.Eval(fault.WALPreSync); ferr != nil {
			if errors.Is(ferr, fault.ErrSkip) {
				skipSync = true // lost-durability run: pretend the fsync happened
			} else {
				m.broken.Store(true)
				return fmt.Errorf("wal: group %d: %w", g.id, ferr)
			}
		}
		if m.syncOnFlush && !skipSync {
			if err := g.f.Sync(); err != nil {
				m.broken.Store(true)
				return fmt.Errorf("wal: group %d sync: %w", g.id, err)
			}
		}
		if ferr := fault.Eval(fault.WALPostSync); ferr != nil {
			// The records are durable but the caller never learns it: the
			// acknowledgment is lost, not the data.
			m.broken.Store(true)
			return fmt.Errorf("wal: group %d: %w", g.id, ferr)
		}
	}
	// Durable: publish every member's horizon.
	for _, p := range g.parts {
		if p.gsn > p.w.flushedGSN.Load() {
			p.w.flushedGSN.Store(p.gsn)
		}
	}
	return nil
}

// FlushedGSN returns the writer's durable GSN horizon.
func (w *Writer) FlushedGSN() uint64 { return w.flushedGSN.Load() }

// Manager owns the per-slot writers, their commit groups, and the global
// flush horizon.
type Manager struct {
	dir         string
	syncOnFlush bool
	io          *metrics.IOCounters
	writers     []*Writer
	groups      []*group
	// broken latches the first flush/sync failure (fail-stop, see
	// ErrBroken).
	broken atomic.Bool
	// flushes counts device writes across all groups (buffer drains that
	// actually hit the file, not empty-buffer Flush calls).
	flushes atomic.Int64
	// groupWait is how long a commit leader waits for mid-flight sibling
	// transactions before issuing the group fsync (0 = flush immediately).
	groupWait time.Duration
	// groupWaits counts commits that paid the leader wait; groupLeadEarly
	// counts those of them woken before the deadline.
	groupWaits     atomic.Int64
	groupLeadEarly atomic.Int64
	// waits receives wait-event stamps for commit flushes; may be nil.
	waits *waitevent.Slots
}

// Flushes returns the number of non-empty buffer drains across all writers.
func (m *Manager) Flushes() int64 { return m.flushes.Load() }

// GroupWaits returns the number of commits that paid the group-commit
// leader wait before flushing.
func (m *Manager) GroupWaits() int64 { return m.groupWaits.Load() }

// GroupLeadEarly returns the number of leader waits that ended before
// their deadline because the batch was complete or already flushed.
func (m *Manager) GroupLeadEarly() int64 { return m.groupLeadEarly.Load() }

// Options configures a Manager.
type Options struct {
	// Dir is the directory holding the log files (wal-<n>.log, one per
	// commit group).
	Dir string
	// Writers is the number of task-slot writers.
	Writers int
	// Groups is the number of commit groups (log files). 0 means one group
	// per writer — the original ungrouped layout with no shared fsync.
	Groups int
	// GroupOf maps a writer id to its commit group [0, Groups). Nil means
	// writer i joins group i%Groups. The engine maps every slot of a worker
	// to one group so a worker's concurrent commits share a fsync window.
	GroupOf func(writer int) int
	// SyncOnFlush issues fsync on every flush (the paper's "WAL sync
	// enabled" setting). Off by default in tests for speed.
	SyncOnFlush bool
	// GroupCommitWait is the upper bound on how long a commit leader parks
	// for other members' commits before issuing the shared fsync; 0
	// flushes immediately. The wait arms on evidence of concurrency, not
	// on what is buffered: while recent flushes batched two or more
	// commits, plus one probe every 32nd flush. It ends early when an
	// arriving committer leaves no member with buffered records short of
	// a commit record. A serial commit stream pays the probe only.
	GroupCommitWait time.Duration
	// IO receives write-volume accounting; may be nil.
	IO *metrics.IOCounters
	// Waits receives per-slot wait-event stamps from the commit flush
	// path (writer ids are task-slot ids); may be nil.
	Waits *waitevent.Slots
}

// Open creates a Manager, its commit groups, and their log files.
func Open(opts Options) (*Manager, error) {
	if opts.Writers <= 0 {
		return nil, fmt.Errorf("wal: need at least one writer")
	}
	groups := opts.Groups
	if groups <= 0 {
		groups = opts.Writers
	}
	groupOf := opts.GroupOf
	if groupOf == nil {
		groupOf = func(w int) int { return w % groups }
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: opts.Dir, syncOnFlush: opts.SyncOnFlush, groupWait: opts.GroupCommitWait, io: opts.IO, waits: opts.Waits}
	for i := 0; i < groups; i++ {
		f, err := os.OpenFile(m.groupPath(i), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			m.Close()
			return nil, err
		}
		g := &group{id: i, mgr: m, f: f, arrive: make(chan struct{}, 1)}
		g.flushed.L = &g.mu
		m.groups = append(m.groups, g)
	}
	for i := 0; i < opts.Writers; i++ {
		gi := groupOf(i)
		if gi < 0 || gi >= groups {
			m.Close()
			return nil, fmt.Errorf("wal: GroupOf(%d) = %d outside [0,%d)", i, gi, groups)
		}
		w := &Writer{id: i, mgr: m, grp: m.groups[gi]}
		m.groups[gi].members = append(m.groups[gi].members, w)
		m.writers = append(m.writers, w)
	}
	return m, nil
}

func (m *Manager) groupPath(i int) string {
	return filepath.Join(m.dir, GroupFileName(i))
}

// Writer returns the slot's writer.
func (m *Manager) Writer(slot int) *Writer { return m.writers[slot] }

// NumWriters returns the writer count.
func (m *Manager) NumWriters() int { return len(m.writers) }

// NumGroups returns the commit-group (log file) count.
func (m *Manager) NumGroups() int { return len(m.groups) }

// constraintGSN returns the writer's contribution to the global flush
// horizon: its flushed GSN while it has unflushed records, otherwise no
// constraint (everything it ever logged is durable).
func (w *Writer) constraintGSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bufferGSN > w.flushedGSN.Load() {
		return w.flushedGSN.Load()
	}
	return ^uint64(0)
}

// GlobalFlushedGSN returns the horizon below which every logged change is
// durable regardless of which writer logged it: the minimum flushed GSN
// over writers that still hold unflushed records.
func (m *Manager) GlobalFlushedGSN() uint64 {
	min := uint64(1<<64 - 1)
	for _, w := range m.writers {
		if g := w.constraintGSN(); g < min {
			min = g
		}
	}
	return min
}

// WaitRemoteFlush makes every change with GSN <= gsn durable. This is the
// expensive path RFA lets most transactions skip: it forces a flush on
// every writer lagging the horizon.
func (m *Manager) WaitRemoteFlush(gsn uint64) error {
	for _, w := range m.writers {
		if w.FlushedGSN() >= gsn {
			continue
		}
		// The writer may simply have nothing at that GSN; flushing is
		// still the only way to know its buffer is empty up to gsn.
		if err := w.flushPast(gsn); err != nil {
			return err
		}
	}
	return nil
}

// flushPast flushes the writer and advances its horizon to at least gsn
// when it has nothing buffered at or above it. The unlocks are deferred so
// an injected crash mid-flush cannot strand a mutex and deadlock peers.
func (w *Writer) flushPast(gsn uint64) error {
	g := w.grp
	g.mu.Lock()
	defer g.mu.Unlock()
	w.mu.Lock()
	if w.bufferGSN < gsn {
		// Everything this writer has even buffered is below gsn;
		// advance its horizon without touching the disk.
		w.raiseLocalGSN(gsn)
		w.bufferGSN = gsn
	}
	w.mu.Unlock()
	return g.flushLocked()
}

// FlushAll flushes every group (used at shutdown and checkpoints).
func (m *Manager) FlushAll() error {
	for _, g := range m.groups {
		g.mu.Lock()
		err := g.flushLocked()
		g.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes all group files.
func (m *Manager) Close() error {
	var first error
	for _, g := range m.groups {
		if g == nil || g.f == nil {
			continue
		}
		g.mu.Lock()
		if err := g.flushLocked(); err != nil && first == nil {
			first = err
		}
		err := g.f.Close()
		g.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- Remote Flush Avoidance tracking ----------------------------------------

// PageStamp is the per-page RFA bookkeeping: the GSN of the page's last
// logged change and the slot that made it. It is embedded in buffer-managed
// page frames and mutated under the page's exclusive latch.
type PageStamp struct {
	GSN        uint64
	LastWriter int32
}

// NeedsRemoteFlush evaluates the RFA rule for a transaction on slot `slot`
// about to modify a page with stamp ps: the transaction depends on a
// remote flush iff another slot wrote the page and that writer has not yet
// flushed past the page's GSN. lastWriterFlushed is that writer's durable
// horizon — the per-writer check is what makes RFA effective: once the
// previous writer committed (and therefore flushed), reusing its page
// creates no dependency even while unrelated writers lag.
func NeedsRemoteFlush(ps PageStamp, slot int, lastWriterFlushed uint64) bool {
	return ps.LastWriter >= 0 && int(ps.LastWriter) != slot && ps.GSN > lastWriterFlushed
}

// --- Reading the log ----------------------------------------------------------

// GroupFileName returns the name of commit group g's log file.
func GroupFileName(g int) string { return fmt.Sprintf("wal-%04d.log", g) }

// groupFiles returns dir's group log files in group order.
func groupFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Scan is the one walk over log bytes: starting at off it decodes whole,
// checksum-valid records and hands each, with its encoded bytes, to fn,
// until fn returns false, the data ends, or the bytes stop decoding (a
// torn or incomplete tail). It returns the offset of the first byte not
// consumed — len(data) when everything decoded and was accepted.
func Scan(data []byte, off int, fn func(r Record, raw []byte) bool) (next int) {
	for off >= 0 && off < len(data) {
		r, n, ok := decodeRecord(data[off:])
		if !ok || !fn(r, data[off:off+n]) {
			break
		}
		off += n
	}
	return off
}

// Recover reads every group file in dir, drops torn tails, and returns the
// records ordered by (GSN, writer, LSN) for redo.
//
// A file whose tail fails to parse (a crash tore the final write, or a
// partial sector flipped bytes in it) is physically truncated back to its
// last checksum-valid record. Without the truncation the torn bytes would
// stay on disk and the reopened engine's O_APPEND writers would extend
// them, leaving every post-recovery record unreachable behind garbage, so
// only the log's owner may recover it.
func Recover(dir string) ([]Record, error) {
	paths, err := groupFiles(dir)
	if err != nil {
		return nil, err
	}
	var all []Record
	for wi, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("wal: recover %s: %w", p, err)
		}
		valid := Scan(data, 0, func(r Record, _ []byte) bool {
			r.Writer = int32(wi)
			all = append(all, r)
			return true
		})
		if valid < len(data) { // torn tail: everything after is discarded
			if err := os.Truncate(p, int64(valid)); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", p, err)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].GSN != all[j].GSN {
			return all[i].GSN < all[j].GSN
		}
		if all[i].Writer != all[j].Writer {
			return all[i].Writer < all[j].Writer
		}
		return all[i].LSN < all[j].LSN
	})
	return all, nil
}

// Dir returns the directory holding the writer files.
func (m *Manager) Dir() string { return m.dir }

// MaxGSN returns the highest GSN any writer has assigned (checkpoint
// horizon). Call after FlushAll so buffers are empty.
func (m *Manager) MaxGSN() uint64 {
	var max uint64
	for _, w := range m.writers {
		if g := w.localGSN.Load(); g > max {
			max = g
		}
	}
	return max
}

// Truncate discards every group's on-disk log. The checkpoint that
// captured the database state must be durable first. GSN clocks and LSNs
// keep advancing so post-truncation records sort after history.
func (m *Manager) Truncate() error {
	for _, g := range m.groups {
		g.mu.Lock()
		for _, w := range g.members {
			w.mu.Lock()
			pending := len(w.buf) != 0
			w.mu.Unlock()
			if pending {
				g.mu.Unlock()
				return fmt.Errorf("wal: truncate with unflushed records on writer %d", w.id)
			}
		}
		err := g.f.Truncate(0)
		g.mu.Unlock()
		if err != nil {
			return fmt.Errorf("wal: truncate group %d: %w", g.id, err)
		}
	}
	return nil
}
