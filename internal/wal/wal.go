// Package wal implements PhoebeDB's parallel write-ahead log (§8).
//
// Following the "Non-Force, Steal" principle, committed transactions need
// not have their data pages flushed, and dirty pages of uncommitted
// transactions may be written out — recovery replays the log.
//
// Unlike a traditional serialized log, PhoebeDB maintains one WAL writer
// per task slot, each with a private in-memory buffer and GSN clock. Every
// record carries two sequence numbers:
//
//   - GSN (Global Sequence Number): monotonically increasing but not
//     unique; establishes a cross-writer partial order. A writer's local
//     GSN advances to max(localGSN, pageGSN)+1 whenever it logs a change to
//     a page, so any two changes to the same page are GSN-ordered.
//   - LSN (Log Sequence Number): strictly increasing within one writer.
//
// A commit flushes once and returns. A flush writes each writer's buffer
// only up to its commit point, the end of its last commit or catalog
// record, and a rollback discards what lies past it (Writer.Discard), so
// the log holds no record of an unfinished transaction, short of a torn
// flush. The paper's Remote Flush Avoidance, which makes a commit wait for
// another slot's flush when it touched a page that slot changed, has no
// work here: redo applies committed transactions only, none sees another's
// writes before their commit is durable, and a foreign record that shares
// a page with a commit reaches the log with its own commit or not at all.
//
// Every writer drains into one commit group and the newest of a row of log
// files, each named by the checkpoint horizon that opened it (FileName; a
// fresh log writes wal-0000.log). A file with a successor is complete and
// never changes again, so no file restarts under a reader (Manager.Rotate,
// Manager.RemoveOld). The first committer to reach the flush mutex becomes the
// leader and drains every writer's committed records in one write and sync,
// while followers arriving behind it find their records already durable and
// return without touching the device. A leader that expects another
// commit within one fsync parks for at most one fsync first; a committer
// arriving meanwhile joins that leader and ends the window as soon as the
// batch is complete (see Writer.Flush). Buffers are trimmed only after the
// write succeeds, and a failed fsync latches the log broken, so a torn or
// failed flush never loses an acknowledged commit.
//
// The file is written in place, not appended to. The manager tracks the
// end of the last record and writes each flush there with pwrite, into
// space fallocate reserved a chunk at a time ahead of the writes, and
// syncs with fdatasync: a flush inside reserved space changes neither the
// file's size nor its extents, so the sync commits no file-system
// metadata. The log's length is therefore the end of its last whole
// record, not the file's size; every reader stops at the first record
// that does not decode, which the reserved zeros never do. Open reads the
// records and cuts the file at their end (a torn tail, or reserved space
// never written), and Close and Rotate cut the reserve, so a cleanly
// closed or a rotated file holds only records. Where fallocate is missing or fails, the log is
// appended to, and the same fdatasync also syncs the size each append
// changes (fsync off Linux).
//
// Recovery reads all log files oldest first (a directory written by an
// earlier release may hold one per commit group), verifies checksums, stops
// each file at its first record that does not decode, sorts the records
// stably by GSN, and hands the ordered stream to the engine for redo. It
// changes no file. The log's owner recovers through Manager.Recover, which
// takes the records Open already read instead of reading them again. Per-writer
// order survives the sort because a writer's records carry strictly
// increasing GSNs and drain to the file in LSN order.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/durable"
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
	total, ok := wholeRecord(b)
	if !ok {
		return Record{}, 0, false
	}
	return parseRecord(b[:total]), total, true
}

// wholeRecord reports whether b starts with a complete, checksum-valid
// record, and its encoded length if so.
func wholeRecord(b []byte) (int, bool) {
	if len(b) < recordHeaderSize {
		return 0, false
	}
	total := recordHeaderSize + int(binary.LittleEndian.Uint32(b[0:]))
	if len(b) < total {
		return 0, false
	}
	return total, crc32.ChecksumIEEE(b[8:total]) == binary.LittleEndian.Uint32(b[4:])
}

// parseRecord decodes b, one whole record as wholeRecord measured it.
func parseRecord(b []byte) Record {
	r := Record{
		Type:    RecordType(b[8]),
		GSN:     binary.LittleEndian.Uint64(b[9:]),
		LSN:     binary.LittleEndian.Uint64(b[17:]),
		XID:     binary.LittleEndian.Uint64(b[25:]),
		TableID: binary.LittleEndian.Uint32(b[33:]),
		RowID:   binary.LittleEndian.Uint64(b[37:]),
	}
	if len(b) > recordHeaderSize {
		r.Payload = append([]byte(nil), b[recordHeaderSize:]...)
	}
	return r
}

// Writer is one task slot's private WAL stream. Records buffer per writer;
// the bytes drain to the log file during a commit-group flush.
type Writer struct {
	id  int
	mgr *Manager

	mu  sync.Mutex
	buf []byte
	lsn uint64
	// commit is the end in buf of the last commit or catalog record: a
	// flush writes buf up to it, and Discard cuts buf back to it. All before
	// it is committed, as a transaction logs on one writer; on the system
	// slot, warm transactions and catalog records both hold the engine's
	// sysMu, so no catalog record lands inside an open transaction.
	commit int
	// open is true while buf holds records past commit: the slot is
	// mid-transaction, a commit the group's leader may wait for. Written
	// under mu, read lock-free by committers sizing up the batch.
	open atomic.Bool
	// appended counts total bytes ever encoded into this writer's stream.
	// Per-statement accounting differences it around a statement to charge
	// log volume to the statement that generated it.
	appended atomic.Int64
	// localGSN is the highest GSN assigned by this writer. Atomic rather
	// than owner-private: RaiseGSN lifts it from other goroutines (catalog
	// records, checkpoints, backup horizons) while the owner logs.
	localGSN atomic.Uint64
}

// flushPart records how much of one writer's buffer a group flush captured:
// the first n buffered bytes, up to its commit point. Only that prefix is
// trimmed once the write succeeds — records appended while the flush was in
// flight stay buffered.
type flushPart struct {
	w *Writer
	n int
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

// RaiseGSN lifts the writer's local GSN clock to at least g without
// touching the buffer, so it is safe while transactions run: every record
// logged after the raise sorts strictly above g. Recovery and checkpoints
// use it so post-restart records sort after every recovered or captured
// one; the base-backup horizon uses it to turn the GSN partial order into
// a clean cut on every writer.
func (w *Writer) RaiseGSN(g uint64) {
	for {
		cur := w.localGSN.Load()
		if g <= cur || w.localGSN.CompareAndSwap(cur, g) {
			return
		}
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
	if r.Type == RecCommit || r.Type == RecCatalog {
		w.commit = len(w.buf)
	}
	if open := len(w.buf) > w.commit; open != w.open.Load() {
		w.open.Store(open)
	}
	w.mu.Unlock()
}

// Discard drops the records past the commit point: a rollback's.
func (w *Writer) Discard() {
	w.mu.Lock()
	w.buf = w.buf[:w.commit]
	w.open.Store(false)
	w.mu.Unlock()
}

// AppendedBytes returns the total bytes ever encoded into this writer's
// stream (durable or not) — a monotonic counter for per-statement deltas.
func (w *Writer) AppendedBytes() int64 { return w.appended.Load() }

// Flush makes this writer's committed records durable (synced if the
// manager is in sync mode). It is the group-commit entry point, and every
// wait in it is a park with one waker:
//
//   - A committer that finds the flush mutex held blocks on it; when it
//     gets the mutex its records are usually already durable.
//   - A committer that becomes leader parks only when another commit is
//     expected within one flush: when G, the moving average of the gap from
//     a leader's arrival to the next commit's arrival, is below F, the
//     moving average of a flush's device time. G is sampled whether or not
//     the leader parked. It releases the mutex and parks for at most F, and
//     is woken early by the committer whose arrival completes the batch —
//     no writer is left holding buffered records without a commit record —
//     or by any other flush. In a serial stream the next commit arrives
//     only after the leader's flush, so G exceeds F and nothing parks;
//     without fsync F is near zero, and nothing parks either.
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

// pending reports whether the writer holds committed records not written.
func (w *Writer) pending() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commit > 0
}

// flushCommit is Flush's body; seg is the current wait-segment start when
// wait-event stamping is on (ws non-nil), updated in place when the stamp
// switches between wal_flush and wal_group_lead.
func (w *Writer) flushCommit(ws *waitevent.Slots, seg *time.Time) error {
	m := w.mgr
	at := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gapOpen { // the first commit to arrive after the last leader's
		m.gapOpen = false
		ewma(&m.gap, max(at.Sub(m.leadAt), 0))
	}
	for {
		if m.broken.Load() {
			return ErrBroken
		}
		if !w.pending() {
			// A flush covered us while we waited for the mutex or a leader.
			return nil
		}
		if !m.leading {
			break
		}
		// Join the parked leader. It is woken only once the batch is
		// complete, so a burst of joiners costs it one wake-up.
		if !m.anyOpen() {
			m.poke()
		}
		m.flushed.Wait()
	}
	m.leadAt, m.gapOpen = at, true
	if f := m.fsync.Load(); m.gap.Load() < f {
		w.lead(time.Duration(f), ws, seg)
		if broken := m.broken.Load(); broken || !w.pending() {
			// Another flush covered the whole batch, us included, while we
			// were parked (or the log failed). The joiners wait on a flush
			// that will not come from us: let them look again.
			m.flushed.Broadcast()
			if broken {
				return ErrBroken
			}
			return nil
		}
	}
	return m.flushLocked()
}

// lead is the group-commit leader wait: before paying the fsync, park for
// at most one flush's device time d so a commit expected from another
// writer can join — the flush that follows then retires the whole batch
// under one device write. The window closes at d, or as soon as a joiner
// (or a flush from elsewhere) pokes; the leader parks only when a joiner
// is expected, because a sub-millisecond deadline fires late (see
// internal/park). Parking hands the processor to sibling slots at once,
// where a thread entering fsync only releases it after the runtime's
// syscall-retake latency. Caller holds m.mu; lead releases it while parked
// and returns with it held.
func (w *Writer) lead(d time.Duration, ws *waitevent.Slots, seg *time.Time) {
	m := w.mgr
	select {
	case <-m.arrive: // a poke that crossed the previous leader's deadline
	default:
	}
	m.leading = true
	m.groupWaits.Add(1)
	m.mu.Unlock()
	if ws != nil {
		*seg = ws.Switch(w.id, waitevent.EvWALFlush, waitevent.EvWALGroupLead, *seg)
	}
	early := m.timer.Wait(m.arrive, d)
	if ws != nil {
		*seg = ws.Switch(w.id, waitevent.EvWALGroupLead, waitevent.EvWALFlush, *seg)
	}
	m.mu.Lock()
	m.leading = false
	if early {
		m.groupLeadEarly.Add(1)
	}
}

// anyOpen reports whether some writer holds records past its commit point:
// a transaction still on its way to its commit, worth keeping the leader's
// window open for.
func (m *Manager) anyOpen() bool {
	for _, w := range m.writers {
		if w.open.Load() {
			return true
		}
	}
	return false
}

// poke wakes the parked leader. Caller holds m.mu and has seen m.leading.
func (m *Manager) poke() {
	select {
	case m.arrive <- struct{}{}:
	default: // already poked
	}
}

// noArrival is G before any commit has followed a leader: infinite in
// effect, longer than any flush worth waiting out.
const noArrival = time.Second

// ewma folds sample into the moving average v with weight 1/8. Caller
// holds m.mu, so the load and store do not race another fold.
func ewma(v *atomic.Int64, sample time.Duration) {
	old := v.Load()
	v.Store(old + (int64(sample)-old)/8)
}

// maxKeptBuf bounds the capacity a writer's buffer, and the flush's
// concatenation of them, keep after a flush; a bulk transaction's larger
// array is released once its bytes are written. A loader's 1,000-row
// transactions (~110 KB of records) stay under it and reuse their arrays:
// at 64 KiB they reallocated every transaction, which raised a 200k-row
// load's allocations from 151 to 241 MB.
const maxKeptBuf = 1 << 20

// flushLocked drains every writer's committed records to the log file in
// one write (+sync) and trims the drained prefixes. Caller holds m.mu.
// Nothing is trimmed if the write fails: the buffers still hold every
// unacknowledged record, so an acknowledged commit can never be lost.
// Whatever the outcome, committers that joined a leader are woken to look
// at their buffers, and a leader parked through a flush that was not its
// own (a checkpoint's, a catalog record's) is woken to find itself covered.
func (m *Manager) flushLocked() error {
	defer m.flushed.Broadcast()
	if m.leading {
		defer m.poke()
	}
	if m.broken.Load() {
		return ErrBroken
	}
	m.scratch = m.scratch[:0]
	m.parts = m.parts[:0]
	for _, w := range m.writers {
		w.mu.Lock()
		if n := w.commit; n > 0 {
			m.scratch = append(m.scratch, w.buf[:n]...)
			m.parts = append(m.parts, flushPart{w: w, n: n})
		}
		w.mu.Unlock()
	}
	if len(m.scratch) > 0 {
		if cut := fault.TornCut(fault.WALTornWrite, len(m.scratch)); cut > 0 {
			// Simulate a crash tearing the flush: persist a prefix that
			// ends mid-record, then die. The buffers are left intact so a
			// racing flush cannot complete the write and acknowledge a
			// commit behind the "dead" process's back (the armed site
			// would tear that flush too).
			m.write(m.scratch[:len(m.scratch)-cut])
			fault.Crash(fault.WALTornWrite)
		}
		// F times the write, the pre-sync failpoint and the sync together,
		// so a sleep armed there acts as a slower device.
		start := time.Now()
		n, err := m.write(m.scratch)
		if m.io != nil {
			m.io.WALWrite.Add(int64(n))
		}
		if err != nil {
			m.broken.Store(true)
			return fmt.Errorf("wal: flush: %w", err)
		}
		m.flushes.Add(1)
		// Trim the written prefixes NOW, before the sync failpoints: the
		// records are in the OS's hands, and a crash injected below must
		// not let a later flush write them a second time. Records appended
		// mid-flush keep their place behind the cut. A real sync failure
		// latches broken, so trimming early never drops an acked commit.
		// Discard cuts to the commit point, never below a captured prefix.
		for _, p := range m.parts {
			p.w.mu.Lock()
			rest := p.w.buf[p.n:]
			if cap(p.w.buf) > maxKeptBuf {
				// A bulk transaction grew it: keep only what is left.
				p.w.buf = append([]byte(nil), rest...)
			} else {
				p.w.buf = p.w.buf[:copy(p.w.buf, rest)]
			}
			p.w.commit -= p.n
			p.w.mu.Unlock()
		}
		if cap(m.scratch) > maxKeptBuf {
			m.scratch = nil
		}
		skipSync := false
		if ferr := fault.Eval(fault.WALPreSync); ferr != nil {
			if errors.Is(ferr, fault.ErrSkip) {
				skipSync = true // lost-durability run: pretend the fsync happened
			} else {
				m.broken.Store(true)
				return fmt.Errorf("wal: %w", ferr)
			}
		}
		if m.syncOnFlush && !skipSync {
			if err := m.sync(); err != nil {
				m.broken.Store(true)
				return fmt.Errorf("wal: sync: %w", err)
			}
		}
		ewma(&m.fsync, time.Since(start))
		if ferr := fault.Eval(fault.WALPostSync); ferr != nil {
			// The records are durable but the caller never learns it: the
			// acknowledgment is lost, not the data.
			m.broken.Store(true)
			return fmt.Errorf("wal: %w", ferr)
		}
	}
	return nil
}

// reserveChunk is how much log space one fallocate reserves ahead of the
// writes. A flush that stays inside reserved space changes neither the
// file's size nor its extent map, so its fdatasync commits no metadata;
// at point_update's 105 bytes per commit one chunk lasts ~40,000 commits.
const reserveChunk = 4 << 20

// noReserve is end once reserving has failed: no write passes it, so the
// log is appended to for the rest of the manager's life.
const noReserve = math.MaxInt64

// write puts b into the log at the tracked offset and advances the offset
// past the bytes written. It first reserves the next chunk when b would
// pass the reserved end; a file system that cannot reserve (or a platform
// without fallocate) leaves the writes appending, which grows the file.
// Reserving writes no data, so it adds nothing to IO.WALWrite. Caller
// holds m.mu.
func (m *Manager) write(b []byte) (int, error) {
	if end := m.off + int64(len(b)); end > m.end {
		next := (end + reserveChunk - 1) / reserveChunk * reserveChunk
		if err := allocate(m.f, m.end, next-m.end); err != nil {
			m.end = noReserve
		} else {
			m.end = next
		}
	}
	n, err := m.f.WriteAt(b, m.off)
	m.off += int64(n)
	return n, err
}

// sync makes the written bytes durable with fdatasync (fsync where the
// platform lacks it). Inside reserved space the file's size and extents
// are durable already; a write that appended changed the size, which
// fdatasync syncs too.
func (m *Manager) sync() error { return datasync(m.f) }

// Manager owns the per-slot writers, the one commit group they all drain
// through, and the log file they write.
type Manager struct {
	dir         string
	syncOnFlush bool
	io          *metrics.IOCounters
	writers     []*Writer

	// mu serializes flushes. A committer that blocks here while another
	// writer flushes is the group-commit win: when it gets the mutex its
	// records are usually already durable.
	mu sync.Mutex
	// leading is true while a commit leader is parked in its wait window
	// (mu released). Committers arriving meanwhile join it: they wait on
	// flushed, which every flush attempt and every leader standing down
	// broadcasts, instead of opening a window of their own.
	leading bool
	flushed sync.Cond
	// arrive wakes the parked leader before its deadline; timer is that
	// deadline, one since there is one leader at a time.
	arrive  chan struct{}
	timer   park.Timer
	f       *os.File
	horizon uint64      // f's name (FileName); under mu
	scratch []byte      // concatenated writer buffers for the single write
	parts   []flushPart // per-writer drained prefix bookkeeping
	// off is the end of the last record written to f, where the next flush
	// writes; end is the end of the space reserved for it, noReserve once
	// reserving failed (see write). Both are under mu.
	off, end int64
	// found are the records Open read from f, up to foundEnd; Recover hands
	// them over and reads f only past foundEnd. Under mu.
	found    []Record
	foundEnd int64

	// fsync (F) and gap (G) are the moving averages, in nanoseconds, the
	// leader wait is derived from (see Flush). They are written under mu
	// and read lock-free by the gauges. leadAt is the last flush leader's
	// arrival; gapOpen holds until the next commit arrives.
	fsync, gap atomic.Int64
	leadAt     time.Time
	gapOpen    bool

	// broken latches the first flush/sync failure (fail-stop, see
	// ErrBroken).
	broken atomic.Bool
	// flushes counts device writes (buffer drains that actually hit the
	// file, not empty-buffer Flush calls).
	flushes atomic.Int64
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

// Window returns the moving averages the leader wait is derived from: F,
// a flush's device time, and G, the gap from a flush leader's arrival to
// the next commit's arrival (one second, in effect infinite, until a
// commit has followed a leader).
func (m *Manager) Window() (fsync, gap time.Duration) {
	return time.Duration(m.fsync.Load()), time.Duration(m.gap.Load())
}

// Options configures a Manager.
type Options struct {
	// Dir is the directory holding the log files.
	Dir string
	// Writers is the number of task-slot writers.
	Writers int
	// SyncOnFlush syncs the log on every flush (the paper's "WAL sync
	// enabled" setting; see Manager.sync). Off by default in tests for
	// speed.
	SyncOnFlush bool
	// IO receives write-volume accounting; may be nil.
	IO *metrics.IOCounters
	// Waits receives per-slot wait-event stamps from the commit flush
	// path (writer ids are task-slot ids); may be nil.
	Waits *waitevent.Slots
}

// Open creates a Manager, its writers, and the log file they write, the
// directory's newest. The file is read once: its records are kept for
// Manager.Recover, and the file is cut at the end of the last whole one,
// which drops a torn tail and any space reserved but never written. The
// first flush writes there.
func Open(opts Options) (*Manager, error) {
	if opts.Writers <= 0 {
		return nil, fmt.Errorf("wal: need at least one writer")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	files, err := logFiles(opts.Dir)
	if err != nil {
		return nil, err
	}
	var h uint64
	if len(files) > 0 {
		h = files[len(files)-1].h
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, FileName(h)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	found, off, err := readTail(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &Manager{dir: opts.Dir, syncOnFlush: opts.SyncOnFlush,
		io: opts.IO, waits: opts.Waits, f: f, horizon: h, arrive: make(chan struct{}, 1),
		off: off, end: off, found: found, foundEnd: off}
	m.flushed.L = &m.mu
	m.gap.Store(int64(noArrival))
	for i := 0; i < opts.Writers; i++ {
		m.writers = append(m.writers, &Writer{id: i, mgr: m})
		// Every record is above its file's horizon, also in a directory an
		// earlier release wrote, whose files are named by group number.
		m.writers[i].localGSN.Store(h)
	}
	return m, nil
}

// Writer returns the slot's writer.
func (m *Manager) Writer(slot int) *Writer { return m.writers[slot] }

// NumWriters returns the writer count.
func (m *Manager) NumWriters() int { return len(m.writers) }

// FlushAll drains every writer (used at shutdown and checkpoints).
func (m *Manager) FlushAll() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

// readTail reads f's whole records and truncates f at the end of the last
// one, returning the records and that offset. The cut is synced, so no
// crash brings back bytes past it that the next flush would not overwrite.
func readTail(f *os.File) ([]Record, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	end, _, err := new(scanner).scan(f, 0, func(raw []byte) bool {
		recs = append(recs, parseRecord(raw))
		return true
	})
	if err == nil && end < st.Size() {
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open %s: %w", f.Name(), err)
	}
	return recs, end, nil
}

// Close flushes every writer, cuts the reserved space past the last
// record, and closes the log file: a cleanly closed log holds exactly its
// records' bytes.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.flushLocked()
	if cerr := m.cutReserve(); err == nil {
		err = cerr
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cutReserve cuts the space reserved past the last record. Caller holds
// m.mu.
func (m *Manager) cutReserve() (err error) {
	if m.end > m.off {
		err = m.f.Truncate(m.off)
	}
	return err
}

// Rotate moves the log to the file of checkpoint horizon h, once the image
// holding every record at or below h is durable. The old file is cut as
// Close cuts it and never written again before the new file is created and
// the directory synced, so a reader that finds the new file finds the old
// one complete. No writer may hold a record (the engine is quiesced), and
// every GSN clock is at h. A log whose file is named h or later stays.
func (m *Manager) Rotate(h uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h <= m.horizon {
		return nil
	}
	for _, w := range m.writers {
		if w.open.Load() || w.pending() {
			return fmt.Errorf("wal: rotate with unflushed records on writer %d", w.id)
		}
	}
	if err := m.cutReserve(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(m.dir, FileName(h)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := durable.SyncDir(m.dir); err != nil {
		// A crash may lose the new file, and a reader that found it takes
		// the old one for complete: neither may be written (fail-stop).
		f.Close()
		m.broken.Store(true)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	_ = m.f.Close() // every record in it went through a flush already
	m.f, m.horizon, m.off, m.found, m.foundEnd = f, h, 0, nil, 0
	if m.end != noReserve {
		m.end = 0
	}
	return nil
}

// RemoveOld removes the log files older than the one being written, oldest
// first, once an attached archive has sealed them.
func (m *Manager) RemoveOld() error {
	m.mu.Lock()
	h := m.horizon
	m.mu.Unlock()
	files, err := logFiles(m.dir)
	if err != nil {
		return err
	}
	for _, lf := range files {
		if lf.h < h {
			if err := os.Remove(lf.path); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Reading the log ----------------------------------------------------------

// FileName returns the name of the log file the checkpoint at horizon h
// opened; a fresh log's is FileName(0). The files an earlier release wrote
// one per commit group, wal-0000.log to wal-000n.log, read as a row too.
func FileName(h uint64) string { return fmt.Sprintf("wal-%04d.log", h) }

// logFile is one log file and the horizon its name carries.
type logFile struct {
	h    uint64
	path string
}

// logFiles returns dir's log files, oldest first.
func logFiles(dir string) ([]logFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var files []logFile
	for _, p := range paths {
		var h uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &h); err == nil {
			files = append(files, logFile{h: h, path: p})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].h < files[j].h })
	return files, nil
}

// Scan is the one walk over log bytes: starting at off it decodes whole,
// checksum-valid records and hands each, with its encoded bytes, to fn,
// until fn returns false, the data ends, or the bytes stop decoding (a
// torn or incomplete tail, or the zeros of reserved space). It returns the
// offset of the first byte not consumed — len(data) when everything
// decoded and was accepted.
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

// readChunk bounds one read of a log file: a scanner holds no more than
// one chunk past the record it is decoding.
const readChunk = 64 << 10

// scanner is Scan over a file; its buffer is reused from scan to scan.
type scanner struct{ buf []byte }

// scan reads f from byte off, readChunk bytes at a time, and hands each
// whole, checksum-valid record's bytes to fn (valid until fn returns)
// until fn returns false, the file ends, or a record does not decode. It
// returns the end of the last record fn accepted and how many bytes it
// read. That end, not the file's size, is the log's length: past it lie a
// torn write or reserved zeros, and the read stops within one chunk of
// them.
func (s *scanner) scan(f io.ReaderAt, off int64, fn func(raw []byte) bool) (end, read int64, err error) {
	buf := s.buf[:0]
	defer func() {
		if cap(buf) <= maxKeptBuf { // not one oversized record's array
			s.buf = buf[:0]
		}
	}()
	end = off
	for {
		// buf holds the file's bytes from end, the head of a record not yet
		// whole: read one more chunk behind it.
		buf = slices.Grow(buf, readChunk)
		n, rerr := f.ReadAt(buf[len(buf):len(buf)+readChunk], end+int64(len(buf)))
		read += int64(n)
		buf = buf[:len(buf)+n]
		if rerr != nil && rerr != io.EOF {
			return end, read, rerr
		}
		k := 0
		for {
			total, ok := wholeRecord(buf[k:])
			if !ok {
				break
			}
			if !fn(buf[k : k+total]) {
				return end + int64(k), read, nil
			}
			k += total
		}
		end += int64(k)
		buf = buf[:copy(buf, buf[k:])]
		if n < readChunk || len(buf) >= recordHeaderSize &&
			recordHeaderSize+int(binary.LittleEndian.Uint32(buf)) <= len(buf) {
			// The file ended, or a record that is all there fails its
			// checksum.
			return end, read, nil
		}
	}
}

// HasRecords reports whether some log file in dir begins with a whole
// record: a file of reserved zeros, or one torn in its first record,
// holds no history.
func HasRecords(dir string) bool {
	files, _ := logFiles(dir)
	var sc scanner
	for _, lf := range files {
		f, err := os.Open(lf.path)
		if err != nil {
			continue
		}
		found := false
		sc.scan(f, 0, func([]byte) bool { found = true; return false })
		f.Close()
		if found {
			return true
		}
	}
	return false
}

// Recover reads every log file in dir and returns the records sorted
// stably by GSN for redo. Records are gathered oldest file first, so ties
// keep file order; one writer's records never tie. Each file is read up
// to its first record that does not decode: a torn tail, or space
// reserved and never written.
//
// Recover only reads, so a standby or a verify pass may call it on a
// primary's directory. Cutting the tail is the log's owner's: Open does
// it before the first flush writes there.
func Recover(dir string) ([]Record, error) { return readLogs(dir, nil, 0, 0) }

// Recover is the package's Recover for the log's owner: the records of
// its own file up to where Open stopped reading come from that read, and
// only the rest of the directory's bytes are read now. It hands the
// records Open read over once; a second call reads every file again.
func (m *Manager) Recover() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	found, from := m.found, m.foundEnd
	m.found, m.foundEnd = nil, 0
	return readLogs(m.dir, found, m.horizon, from)
}

// readLogs appends the records of every log file in dir to all, reading
// the file of horizon own from byte from, and sorts them stably by GSN.
func readLogs(dir string, all []Record, own uint64, from int64) ([]Record, error) {
	files, err := logFiles(dir)
	if err != nil {
		return nil, err
	}
	var sc scanner
	for _, lf := range files {
		p, start := lf.path, int64(0)
		if lf.h == own {
			start = from
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("wal: recover %s: %w", p, err)
		}
		_, _, err = sc.scan(f, start, func(raw []byte) bool {
			all = append(all, parseRecord(raw))
			return true
		})
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("wal: recover %s: %w", p, err)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].GSN < all[j].GSN })
	return all, nil
}

// Dir returns the directory holding the log files.
func (m *Manager) Dir() string { return m.dir }

// MaxGSN returns the highest GSN any writer has assigned (checkpoint
// horizon), a rolled-back or open transaction's included.
func (m *Manager) MaxGSN() uint64 {
	var max uint64
	for _, w := range m.writers {
		if g := w.localGSN.Load(); g > max {
			max = g
		}
	}
	return max
}
