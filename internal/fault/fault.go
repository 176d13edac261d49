// Package fault implements deterministic failpoints for crash-recovery and
// error-path testing. A failpoint is a named site compiled into a kernel
// hot path; when armed it injects a failure action, and when disarmed it
// costs a single atomic load, so production paths stay hot.
//
// Sites are armed programmatically (Enable / EnableSpec) or from the
// environment:
//
//	PHOEBE_FAILPOINTS='wal.preSync=panic' go test ./...
//
// The spec grammar is `action[(arg)][@N]`:
//
//	error        Eval returns ErrInjected (callers propagate it).
//	panic        Eval panics with CrashPanic — the in-process crash used
//	             by the recovery harness (internal/fault/crashtest).
//	sleep(dur)   Eval sleeps for dur, then returns nil.
//	skip         Eval returns ErrSkip; callers guarding an fsync treat it
//	             as "pretend the sync happened" (lost-durability runs).
//	torn[(n)]    TornCut reports n trailing bytes to withhold from the
//	             guarded write; the caller persists the prefix and calls
//	             Crash, simulating a write torn mid-record (default n=3).
//	@N           the action fires on the Nth hit of the site and on every
//	             hit after it (earlier hits pass through). Firing on every
//	             later hit is deliberate: once a crash action starts, no
//	             retried write can slip through and acknowledge a commit.
//
// Multiple `site=spec` pairs are separated by ';' or ','.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names compiled into the kernel. Declared here (not in the packages
// that host them) so harnesses can enumerate sites without import cycles.
// When adding a site: add the constant, wire fault.Eval (or TornCut) at the
// seam, and append it to allSites — and to crashSites if a crash there must
// be recoverable (the harness in crashtest picks it up automatically).
const (
	// WALTornWrite tears the WAL flush: a prefix of the buffered records
	// is written, ending mid-record, then the process "dies".
	WALTornWrite = "wal.tornWrite"
	// WALPreSync fires after the WAL buffer write, before fsync: the
	// classic lost-durability window.
	WALPreSync = "wal.preSync"
	// WALPostSync fires after fsync, before the flush horizon advances:
	// the record is durable but the commit was never acknowledged.
	WALPostSync = "wal.postSync"
	// StorageWritePage guards the data-page-file pwrite (buffer eviction).
	StorageWritePage = "storage.writePage"
	// StorageReadPage guards the data-page-file pread (cold-page load).
	StorageReadPage = "storage.readPage"
	// StorageAppendBlock guards the frozen-block append.
	StorageAppendBlock = "storage.appendBlock"
	// CheckpointPreSave fires before the checkpoint image is written.
	CheckpointPreSave = "checkpoint.preSave"
	// CheckpointPostSave fires after the checkpoint file is atomically
	// renamed into place but before the log rotates to its next file.
	CheckpointPostSave = "checkpoint.postSave"
	// CheckpointPreTruncate fires after the log rotated to the checkpoint's
	// file, before the archive seals the old one. It keeps the name of the
	// truncation the rotation replaced, so specs that arm it still parse.
	CheckpointPreTruncate = "checkpoint.preTruncate"
	// CheckpointPreRemove fires after the archive sealed the old log file,
	// before the checkpoint removes it.
	CheckpointPreRemove = "checkpoint.preRemove"
	// BufferEvict fires in the buffer pool's eviction loop, before a
	// cooling frame is written out and dropped.
	BufferEvict = "buffer.evict"
	// ReplicaApply fires before a standby applies a round of shipped
	// committed transactions.
	ReplicaApply = "replica.apply"
	// BackupArchiveCopy fires in the WAL archiver before newly parsed log
	// bytes are appended to the current archive segment (crash mid-archive:
	// nothing has been copied yet, the WAL still holds the bytes).
	BackupArchiveCopy = "backup.archiveCopy"
	// BackupTornSegment tears the archive segment append: a prefix of the
	// copied bytes is written, ending mid-record, then the process "dies".
	// The manifest was not updated, so the torn tail is beyond the
	// acknowledged archive and is discarded on the archiver's next open.
	BackupTornSegment = "backup.tornSegment"
	// BackupPreLabel fires during a base backup after the data files
	// (checkpoint image, frozen blocks, cold manifest) are copied but before the
	// backup label is written. A crash here leaves a label-less base
	// directory that verify/restore must ignore.
	BackupPreLabel = "backup.preLabel"
	// FrozenSegmentWrite fires before a cold segment (freeze batch or
	// compaction output) is appended to the block file. A crash here may
	// leave partial segment bytes in the append-only file; nothing
	// references them, so they are harmless garbage.
	FrozenSegmentWrite = "frozen.segmentWrite"
	// FrozenManifestSwap fires during checkpoint, before the new cold
	// manifest epoch file is renamed into place. A crash here leaves the
	// previous checkpoint (and its manifest epoch) authoritative.
	FrozenManifestSwap = "frozen.manifestSwap"
	// FrozenCompactMerge fires after a compaction merge has written its
	// output segment but before the in-memory segment directory swap. A
	// crash here orphans the merged bytes; the input segments survive.
	FrozenCompactMerge = "frozen.compactMerge"
	// SQLIndexBackfill fires once per row during an online CREATE INDEX
	// backfill scan. Indexes are in-memory (rebuilt from the WAL on
	// recovery), so a crash here must leave the table data consistent and
	// the half-built index simply gone.
	SQLIndexBackfill = "sql.indexBackfill"
	// CatalogPrePublish fires after a CREATE TABLE or CREATE INDEX record
	// is flushed, before the table or index becomes visible. A crash here
	// must recover the object, and nothing in it.
	CatalogPrePublish = "catalog.prePublish"
)

var allSites = []string{
	WALTornWrite, WALPreSync, WALPostSync,
	StorageWritePage, StorageReadPage, StorageAppendBlock,
	CheckpointPreSave, CheckpointPostSave, CheckpointPreTruncate, CheckpointPreRemove,
	BufferEvict, ReplicaApply,
	BackupArchiveCopy, BackupTornSegment, BackupPreLabel,
	FrozenSegmentWrite, FrozenManifestSwap, FrozenCompactMerge,
	SQLIndexBackfill, CatalogPrePublish,
}

// BackupSites are the failpoints in the backup/archive path, the
// checkpoint's steps around the archive seal included; the backup crash
// harness (crashtest.BackupCrash) iterates this list.
var backupSites = []string{
	BackupArchiveCopy, BackupTornSegment, BackupPreLabel,
	CheckpointPreTruncate, CheckpointPreRemove,
}

// BackupSites returns the archiver/base-backup failpoint sites.
func BackupSites() []string { return append([]string(nil), backupSites...) }

// crashSites are the sites where an injected crash must leave the database
// recoverable; the crash-recovery harness iterates this list.
var crashSites = []string{
	WALPreSync, WALPostSync, WALTornWrite,
	CheckpointPreSave, CheckpointPostSave, CheckpointPreTruncate, CheckpointPreRemove,
	BufferEvict, StorageWritePage,
	FrozenSegmentWrite, FrozenManifestSwap, FrozenCompactMerge,
	SQLIndexBackfill, CatalogPrePublish,
}

// AllSites returns every failpoint site compiled into the kernel.
func AllSites() []string { return append([]string(nil), allSites...) }

// CrashSites returns the sites the crash-recovery harness must cover.
func CrashSites() []string { return append([]string(nil), crashSites...) }

// Sentinel results of Eval.
var (
	// ErrInjected is returned (wrapped with the site name) by the `error`
	// action.
	ErrInjected = errors.New("fault: injected error")
	// ErrSkip is returned by the `skip` action; callers guarding an fsync
	// treat it as "skip the guarded operation and continue".
	ErrSkip = errors.New("fault: skip guarded operation")
)

// CrashPanic is the value thrown by the `panic` action (and Crash). Crash
// harnesses recover it with IsCrash; anything else re-panics.
type CrashPanic struct{ Site string }

// String implements fmt.Stringer.
func (c CrashPanic) String() string { return "fault: injected crash at " + c.Site }

// IsCrash reports whether a recovered panic value is an injected crash.
func IsCrash(r any) bool { _, ok := r.(CrashPanic); return ok }

// Crash panics with CrashPanic for the site. Used by torn-write callers
// after persisting the partial buffer; Eval's `panic` action uses it too.
func Crash(site string) { panic(CrashPanic{Site: site}) }

type action uint8

const (
	actError action = iota + 1
	actPanic
	actSleep
	actSkip
	actTorn
)

type point struct {
	action action
	sleep  time.Duration
	torn   int
	after  int64 // fire on the Nth hit and later; 0 = every hit
	hits   atomic.Int64
}

// fired consumes one hit and reports whether the action fires.
func (p *point) fired() bool { return p.hits.Add(1) >= p.after }

// armed counts enabled sites. Zero makes Eval/TornCut a single atomic load
// — the only cost failpoints add to production paths.
var armed atomic.Int64

var (
	mu     sync.Mutex
	points = make(map[string]*point)
)

// Enabled reports whether any failpoint is armed (one atomic load).
func Enabled() bool { return armed.Load() != 0 }

// Eval evaluates the named site. With nothing armed it returns nil after a
// single atomic load. An armed site sleeps (sleep), panics with CrashPanic
// (panic), or returns ErrInjected / ErrSkip wrapped with the site name.
func Eval(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	return evalSlow(site)
}

func evalSlow(site string) error {
	p := lookup(site)
	if p == nil || p.action == actTorn || !p.fired() {
		return nil
	}
	switch p.action {
	case actError:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	case actPanic:
		Crash(site)
	case actSleep:
		time.Sleep(p.sleep)
	case actSkip:
		return fmt.Errorf("%w at %s", ErrSkip, site)
	}
	return nil
}

// TornCut evaluates a torn-write site guarding a write of n bytes. It
// returns the number of trailing bytes to withhold (in [1, n]) when the
// site is armed with the torn action and fires, and 0 otherwise. The
// caller writes the prefix and then calls Crash(site).
func TornCut(site string, n int) int {
	if armed.Load() == 0 || n <= 0 {
		return 0
	}
	p := lookup(site)
	if p == nil || p.action != actTorn || !p.fired() {
		return 0
	}
	cut := p.torn
	if cut <= 0 {
		cut = 3
	}
	if cut > n {
		cut = n
	}
	return cut
}

func lookup(site string) *point {
	mu.Lock()
	defer mu.Unlock()
	return points[site]
}

// Enable arms one site with a spec (see the package comment for the
// grammar). Re-enabling a site replaces its previous configuration.
func Enable(site, spec string) error {
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("fault: site %s: %w", site, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[site]; !ok {
		armed.Add(1)
	}
	points[site] = p
	return nil
}

// Disable disarms one site.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[site]; ok {
		delete(points, site)
		armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for s := range points {
		delete(points, s)
		armed.Add(-1)
	}
}

// HitCounts returns, for each armed site, how many times its guarded seam
// was reached (hits count evaluations, whether or not the action fired —
// an `@N` point shows its approach to the trigger). Crash-test runs use
// this to assert a failpoint actually fired.
func HitCounts() map[string]int64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int64, len(points))
	for s, p := range points {
		out[s] = p.hits.Load()
	}
	return out
}

// Armed returns the currently armed site names, sorted.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for s := range points {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// EnableSpec arms sites from a combined spec: `site=spec[;site=spec...]`
// (',' also separates pairs). This is the PHOEBE_FAILPOINTS format.
func EnableSpec(combined string) error {
	for _, pair := range strings.FieldsFunc(combined, func(r rune) bool {
		return r == ';' || r == ','
	}) {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		site, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("fault: malformed failpoint %q (want site=action)", pair)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

func parseSpec(spec string) (*point, error) {
	p := &point{}
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		n, err := strconv.ParseInt(spec[at+1:], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad hit count in %q", spec)
		}
		p.after = n
		spec = spec[:at]
	}
	name, arg := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("unbalanced parens in %q", spec)
		}
		name, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch name {
	case "error":
		p.action = actError
	case "panic":
		p.action = actPanic
	case "skip":
		p.action = actSkip
	case "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("bad sleep duration %q", arg)
		}
		p.action, p.sleep = actSleep, d
	case "torn":
		p.action = actTorn
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad torn byte count %q", arg)
			}
			p.torn = n
		}
	default:
		return nil, fmt.Errorf("unknown action %q", name)
	}
	return p, nil
}

func init() {
	if s := os.Getenv("PHOEBE_FAILPOINTS"); s != "" {
		if err := EnableSpec(s); err != nil {
			fmt.Fprintf(os.Stderr, "phoebedb: ignoring PHOEBE_FAILPOINTS: %v\n", err)
			Reset()
		}
	}
}
