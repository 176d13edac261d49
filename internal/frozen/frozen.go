// Package frozen implements the Data Block File layer (§5.2) as a
// levelled cold store: long-cold rows are demoted into immutable,
// compressed column-strip segments, primarily serving analytical scans
// and rare point reads while keeping OLTP table scans from warming the
// buffer pool.
//
// A segment is a run of consecutive rows — row_id order is preserved —
// cut into independently decodable blocks of at most blockTargetBytes
// (8 KiB) raw and DefaultBlockRows rows: what a cold point read fetches to
// return one row. Within a block, row ids and integer columns are
// frame-of-reference bit-packed, floats are raw words and only the
// strings are compressed, as one LZ stream (lz.go), so a point read finds
// its row in the id strip and reads its fixed-width values in place,
// decoding the block's strings only as far as its own, and a scan over
// fixed-width columns decodes no string.
// Each segment carries a block directory, a bloom filter over its row_ids
// and min/max zone maps per fixed-width column, for the segment and for
// each block, so a cold point read touches at most one segment (bloom
// negatives touch zero) and one block, and a scan decodes only the blocks
// its predicates cannot refute. Freeze emits
// level-0 segments; a background compaction merges the oldest segments of
// a level into one next-level segment, purging tombstones — row_ids grow
// monotonically with freeze time, so per-level oldest-first merges keep
// every segment's rid range disjoint.
//
// Segments are immutable on disk: updates and deletes are out-of-place
// (§5.2 case 3) — the row is tombstoned in the segment's in-memory
// deleted set and, for updates/warming, re-inserted into hot storage with
// a fresh row_id by the engine. Tombstones become durable via the cold
// manifest written at checkpoint; between checkpoints recovery replays
// them from the WAL. Each block counts its reads; once a block crosses
// the warm threshold the engine extracts its surviving rows back into hot
// storage. A byte-bounded LRU of blocks as they are stored, each checked
// whole when a point read admits it and charged at its stored size,
// spares later point reads the file read and every check; scans read it
// but never fill or reorder it.
package frozen

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"phoebedb/internal/fault"
	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// DefaultWarmReadThreshold is the per-block read count after which the
// engine should warm the block back into hot storage.
const DefaultWarmReadThreshold = 1024

// DefaultCacheBytes bounds the stored-block LRU, in stored (compressed)
// bytes.
const DefaultCacheBytes = 4 << 20

// ColdStats is a snapshot of one store's cold-tier counters.
type ColdStats struct {
	Lookups        int64 // point reads routed to the cold tier
	SegmentsProbed int64 // lookups that consulted a segment block
	BloomNegatives int64 // lookups answered by the bloom filter alone
	// CacheHits/CacheMisses count point-path block loads (Get, MarkDeleted,
	// ExtractLive) served from the stored-block LRU or read from the file;
	// scans bypass the LRU.
	CacheHits   int64
	CacheMisses int64
	// ScanBlocks counts blocks scans fetched; ScanBlocksPruned counts
	// blocks their zone maps (segment's or block's) let them skip.
	ScanBlocks       int64
	ScanBlocksPruned int64
	Compactions      int64
	FreezeBytes      int64 // compressed bytes appended by Freeze (level 0)
	CompactBytes     int64 // compressed bytes appended by compaction merges
	RawBytes         int64 // uncompressed bytes frozen (level 0)
	Segments         int64 // gauge
	Blocks           int64 // gauge
	MaxLevel         int64 // gauge
}

// Add accumulates b into s (gauges sum; MaxLevel takes the max).
func (s *ColdStats) Add(b ColdStats) {
	s.Lookups += b.Lookups
	s.SegmentsProbed += b.SegmentsProbed
	s.BloomNegatives += b.BloomNegatives
	s.CacheHits += b.CacheHits
	s.CacheMisses += b.CacheMisses
	s.ScanBlocks += b.ScanBlocks
	s.ScanBlocksPruned += b.ScanBlocksPruned
	s.Compactions += b.Compactions
	s.FreezeBytes += b.FreezeBytes
	s.CompactBytes += b.CompactBytes
	s.RawBytes += b.RawBytes
	s.Segments += b.Segments
	s.Blocks += b.Blocks
	if b.MaxLevel > s.MaxLevel {
		s.MaxLevel = b.MaxLevel
	}
}

type cacheKey struct {
	seg *segment
	idx int
}

// cacheEntry is one block in the point-read cache. A block enters it only
// through storedBlock.admit, which checks it whole, so a point read that
// hits decodes only what its row needs and checks nothing again. Once
// admitted an entry is read-only and shared by every reader, evicted or
// not.
type cacheEntry struct {
	key cacheKey
	b   storedBlock
}

// Store manages one table's cold segments.
type Store struct {
	bf            *storage.BlockFile
	schema        *rel.Schema
	WarmThreshold uint32

	// CacheBytes bounds the stored-block LRU, charged at each block's
	// stored size (0 = DefaultCacheBytes).
	CacheBytes int64
	// Fanout is the per-level segment count that triggers a merge
	// (0 = DefaultFanout).
	Fanout int
	// BlockRows caps the rows per compressed block (0 = DefaultBlockRows);
	// blocks are cut earlier at blockTargetBytes raw. Tests set it to get
	// many small blocks.
	BlockRows int

	mu   sync.RWMutex
	segs []*segment // ascending firstRID

	compactMu sync.Mutex // one merge at a time

	cacheMu    sync.Mutex
	cacheLRU   *list.List // front = most recent; values are *cacheEntry
	cacheMap   map[cacheKey]*list.Element
	cacheUsed  int64
	lookups    atomic.Int64
	segProbes  atomic.Int64
	bloomNeg   atomic.Int64
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	scanBlocks atomic.Int64
	scanPruned atomic.Int64
	compacts   atomic.Int64
	freezeByt  atomic.Int64
	compactByt atomic.Int64
	rawBytes   atomic.Int64
}

// NewStore creates a cold store over the block file.
func NewStore(bf *storage.BlockFile, schema *rel.Schema) *Store {
	return &Store{
		bf:            bf,
		schema:        schema,
		WarmThreshold: DefaultWarmReadThreshold,
		cacheLRU:      list.New(),
		cacheMap:      make(map[cacheKey]*list.Element),
	}
}

func (s *Store) cacheCapBytes() int64 {
	if s.CacheBytes > 0 {
		return s.CacheBytes
	}
	return DefaultCacheBytes
}

func (s *Store) fanout() int {
	if s.Fanout > 0 {
		return s.Fanout
	}
	return DefaultFanout
}

func (s *Store) blockRows() int {
	if s.BlockRows > 0 {
		return s.BlockRows
	}
	return DefaultBlockRows
}

// NumSegments returns the live segment count.
func (s *Store) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// MaxRID returns the largest frozen row_id (0 if no segments).
func (s *Store) MaxRID() rel.RowID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[len(s.segs)-1].lastRID
}

// Stats returns a counter snapshot.
func (s *Store) Stats() ColdStats {
	st := ColdStats{
		Lookups:          s.lookups.Load(),
		SegmentsProbed:   s.segProbes.Load(),
		BloomNegatives:   s.bloomNeg.Load(),
		CacheHits:        s.cacheHits.Load(),
		CacheMisses:      s.cacheMiss.Load(),
		ScanBlocks:       s.scanBlocks.Load(),
		ScanBlocksPruned: s.scanPruned.Load(),
		Compactions:      s.compacts.Load(),
		FreezeBytes:      s.freezeByt.Load(),
		CompactBytes:     s.compactByt.Load(),
		RawBytes:         s.rawBytes.Load(),
	}
	s.mu.RLock()
	st.Segments = int64(len(s.segs))
	for _, g := range s.segs {
		st.Blocks += int64(len(g.blocks))
		if int64(g.level) > st.MaxLevel {
			st.MaxLevel = int64(g.level)
		}
	}
	s.mu.RUnlock()
	return st
}

// Freeze compresses the rows (ascending row_ids, all greater than any
// frozen so far) into a new level-0 segment.
func (s *Store) Freeze(ids []rel.RowID, rows []rel.Row) error {
	if len(ids) == 0 || len(ids) != len(rows) {
		return fmt.Errorf("frozen: bad freeze batch (%d ids, %d rows)", len(ids), len(rows))
	}
	if max := s.MaxRID(); ids[0] <= max {
		return fmt.Errorf("frozen: row_id %d overlaps frozen range (max %d)", ids[0], max)
	}
	sb := newSegmentBuilder(s.schema, 0, s.blockRows())
	for i, id := range ids {
		if err := sb.add(id, rows[i]); err != nil {
			return err
		}
	}
	g, compBytes, err := s.appendSegment(sb)
	if err != nil {
		return err
	}
	s.freezeByt.Add(compBytes)
	s.rawBytes.Add(sb.rawTotal)
	s.mu.Lock()
	s.segs = append(s.segs, g)
	s.mu.Unlock()
	return nil
}

// appendSegment finishes the builder, appends the encoded segment to the
// block file (behind the frozen.segmentWrite failpoint) and returns the
// in-memory segment.
func (s *Store) appendSegment(sb *segmentBuilder) (*segment, int64, error) {
	data, hlen, err := sb.finish()
	if err != nil {
		return nil, 0, err
	}
	if err := fault.Eval(fault.FrozenSegmentWrite); err != nil {
		return nil, 0, fmt.Errorf("frozen: segment write: %w", err)
	}
	ref, err := s.bf.AppendBlock(data)
	if err != nil {
		return nil, 0, err
	}
	g, err := decodeSegmentHeader(data[:hlen])
	if err == nil {
		err = g.checkBody(int64(len(data) - hlen))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("frozen: self-check of new segment: %w", err)
	}
	g.ref = ref
	g.headerLen = hlen
	g.crc = crc32.ChecksumIEEE(data)
	return g, int64(len(data)), nil
}

// segmentForLocked routes a row_id to its segment; caller holds s.mu.
func (s *Store) segmentForLocked(rid rel.RowID) *segment {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].lastRID >= rid })
	if i == len(s.segs) || s.segs[i].firstRID > rid {
		return nil
	}
	return s.segs[i]
}

// readBlock reads block bi from the block file into buf, grown if it is
// too small (nil: a fresh buffer), and parses it.
func (s *Store) readBlock(g *segment, bi int, buf []byte) (storedBlock, error) {
	comp, err := s.bf.ReadBlockInto(g.bodyRef(bi), buf)
	if err != nil {
		return storedBlock{}, err
	}
	b, err := parseBlock(s.schema, g.version, comp, g.blocks[bi].rawLen)
	if err != nil {
		return storedBlock{}, fmt.Errorf("frozen: segment block at %d: %w", g.ref.Offset, err)
	}
	return b, nil
}

// cached returns block (g, bi)'s entry if the LRU holds it (nil if not),
// promoting it when asked to.
func (s *Store) cached(g *segment, bi int, promote bool) *cacheEntry {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	el, ok := s.cacheMap[cacheKey{seg: g, idx: bi}]
	if !ok {
		return nil
	}
	if promote {
		s.cacheLRU.MoveToFront(el)
	}
	return el.Value.(*cacheEntry)
}

// loadBlock returns block (g, bi) from the byte-bounded LRU — Get's path;
// what the LRU holds is what point reads put there. A miss is the one
// step that admits a block: it reads the block, checks it whole
// (storedBlock.admit) and inserts it. It also returns the var stream that
// check decoded, in pooled scratch the caller puts back, so the read that
// missed serves its row from that decode; a hit returns nil there.
func (s *Store) loadBlock(g *segment, bi int) (*storedBlock, *[]byte, error) {
	if e := s.cached(g, bi, true); e != nil {
		s.cacheHits.Add(1)
		return &e.b, nil, nil
	}
	s.cacheMiss.Add(1)
	b, err := s.readBlock(g, bi, nil)
	if err != nil {
		return nil, nil, err
	}
	e := &cacheEntry{key: cacheKey{seg: g, idx: bi}, b: b}
	vars, err := e.b.admit()
	if err != nil {
		return nil, nil, fmt.Errorf("frozen: segment block at %d: %w", g.ref.Offset, err)
	}
	s.cacheMu.Lock()
	if _, ok := s.cacheMap[e.key]; !ok {
		s.cacheMap[e.key] = s.cacheLRU.PushFront(e)
		s.cacheUsed += int64(len(b.comp))
		cap := s.cacheCapBytes()
		for s.cacheUsed > cap && s.cacheLRU.Len() > 1 {
			back := s.cacheLRU.Back()
			old := back.Value.(*cacheEntry)
			s.cacheLRU.Remove(back)
			delete(s.cacheMap, old.key)
			s.cacheUsed -= int64(len(old.b.comp))
		}
	}
	s.cacheMu.Unlock()
	return &e.b, vars, nil
}

// storedFor returns block (g, bi) for a point path that reads no row in
// place (MarkDeleted, ExtractLive): the cached block if the LRU holds it,
// promoted, or else the block read and parsed for this call alone and not
// admitted. A delete needs only the id strip, and warming moves every row
// of the block out of the frozen layer, so neither would use the check
// that admission pays for.
func (s *Store) storedFor(g *segment, bi int) (storedBlock, error) {
	if e := s.cached(g, bi, true); e != nil {
		s.cacheHits.Add(1)
		return e.b, nil
	}
	s.cacheMiss.Add(1)
	return s.readBlock(g, bi, nil)
}

// dropCached evicts every cached block of a segment (after compaction
// removes it from the directory).
func (s *Store) dropCached(g *segment) {
	s.cacheMu.Lock()
	for key, el := range s.cacheMap {
		if key.seg == g {
			s.cacheUsed -= int64(len(el.Value.(*cacheEntry).b.comp))
			s.cacheLRU.Remove(el)
			delete(s.cacheMap, key)
		}
	}
	s.cacheMu.Unlock()
}

// Get returns the frozen row, if present and not deleted, in row: grown
// to the schema's width if it is shorter, so a nil row gets a fresh one.
// Its strings are the row's own. The bool reports presence.
// Bloom-negative lookups return without touching any segment block.
func (s *Store) Get(rid rel.RowID, row rel.Row) (rel.Row, bool, error) {
	s.lookups.Add(1)
	s.mu.RLock()
	g := s.segmentForLocked(rid)
	if g == nil {
		s.mu.RUnlock()
		return nil, false, nil
	}
	if g.filter != nil && !g.filter.mayContain(uint64(rid)) {
		s.mu.RUnlock()
		s.bloomNeg.Add(1)
		return nil, false, nil
	}
	bi := g.blockFor(rid)
	if bi < 0 {
		s.mu.RUnlock()
		return nil, false, nil
	}
	g.reads[bi].Add(1)
	g.mu.Lock()
	del := g.deleted[rid]
	g.mu.Unlock()
	s.mu.RUnlock()
	if del {
		return nil, false, nil
	}
	s.segProbes.Add(1)
	b, vars, err := s.loadBlock(g, bi)
	if err != nil {
		return nil, false, err
	}
	row, ok, err := b.get(s.schema, rid, row, vars)
	putScratch(vars)
	return row, ok, err
}

// MarkDeleted tombstones a frozen row (out-of-place delete/update). It
// reports whether the row existed and was live; a version-3 or -4 block
// answers that from its id strip, decoding nothing. The whole operation
// runs under the directory read-lock so a concurrent compaction swap
// cannot strand the tombstone on a retired segment.
func (s *Store) MarkDeleted(rid rel.RowID) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.segmentForLocked(rid)
	if g == nil {
		return false, nil
	}
	if g.filter != nil && !g.filter.mayContain(uint64(rid)) {
		return false, nil
	}
	bi := g.blockFor(rid)
	if bi < 0 {
		return false, nil
	}
	b, err := s.storedFor(g, bi)
	if err != nil {
		return false, err
	}
	if ok, err := b.has(rid); !ok || err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.deleted[rid] {
		return false, nil
	}
	g.deleted[rid] = true
	return true, nil
}

// Undelete clears a tombstone (rollback of a warming transaction).
func (s *Store) Undelete(rid rel.RowID) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.segmentForLocked(rid)
	if g == nil {
		return
	}
	g.mu.Lock()
	delete(g.deleted, rid)
	g.mu.Unlock()
}

// ShouldWarm reports whether the row's block has crossed the read
// threshold (§5.2 case 3).
func (s *Store) ShouldWarm(rid rel.RowID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.segmentForLocked(rid)
	if g == nil {
		return false
	}
	bi := g.blockFor(rid)
	return bi >= 0 && g.reads[bi].Load() >= s.WarmThreshold
}

// ExtractLive returns the surviving rows of the block containing rid (for
// re-insertion into hot storage) and tombstones them. Warming is
// per-block: a hot key does not drag a whole multi-megabyte segment back
// into the buffer pool.
func (s *Store) ExtractLive(rid rel.RowID) (ids []rel.RowID, rows []rel.Row, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.segmentForLocked(rid)
	if g == nil {
		return nil, nil, nil
	}
	bi := g.blockFor(rid)
	if bi < 0 {
		return nil, nil, nil
	}
	b, err := s.storedFor(g, bi)
	if err != nil {
		return nil, nil, err
	}
	d, err := b.decode(s.schema, true, nil)
	if err != nil {
		return nil, nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, id := range d.ids {
		if g.deleted[id] {
			continue
		}
		g.deleted[id] = true
		ids = append(ids, id)
		rows = append(rows, d.rows.Row(i))
	}
	g.reads[bi].Store(0)
	return ids, rows, nil
}

// snapshotDeleted copies the segment's tombstone set.
func (g *segment) snapshotDeleted() map[rel.RowID]bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.deleted) == 0 {
		return nil
	}
	dels := make(map[rel.RowID]bool, len(g.deleted))
	for k, v := range g.deleted {
		if v {
			dels[k] = v
		}
	}
	return dels
}

// ScanBlocks streams decoded column-strip blocks in row_id order with a
// selection bitmap over live (non-tombstoned) slots — the one cold scan
// entry point: FilterFixed/AggState fold directly over the strips.
// Segments, then blocks, whose zone maps refute a predicate are skipped
// without I/O. A block a point read left in the LRU spares the scan its
// file read but is not promoted; any other is read privately and never
// inserted, so a scan cannot sweep the point-read cache. Either way the
// scan decodes the block itself, into buffers it reuses from block to
// block. strs says whether fn reads any string column: without it a
// version-3 or -4 block's var stream is never decoded, and reading a
// string column of such a page panics. fn must not retain ids/page/sel
// across calls (strings read from page may be kept: they alias the
// block's var values, which are never reused); returning false stops the
// scan. Scanning does not bump warm counters: per §5.2, "operations like
// table scans do not warm any data".
func (s *Store) ScanBlocks(preds []rel.ColPred, strs bool, fn func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool) error {
	s.mu.RLock()
	segs := append([]*segment(nil), s.segs...)
	s.mu.RUnlock()
	var sel pax.Sel
	var buf scanBuf
	for _, g := range segs {
		if pax.ZonesPrune(g.zones, preds) {
			s.scanPruned.Add(int64(len(g.blocks)))
			continue
		}
		dels := g.snapshotDeleted()
		for bi := range g.blocks {
			if pax.ZonesPrune(g.zonesOf(bi), preds) {
				s.scanPruned.Add(1)
				continue
			}
			s.scanBlocks.Add(1)
			var b storedBlock
			if e := s.cached(g, bi, false); e != nil {
				b = e.b
			} else {
				var err error
				if b, err = s.readBlock(g, bi, buf.comp); err != nil {
					return err
				}
				buf.comp = b.comp
			}
			d, err := b.decode(s.schema, strs, &buf)
			if err != nil {
				return err
			}
			sel = sel.Reset(len(d.ids))
			live := len(d.ids)
			if len(dels) > 0 {
				for i, id := range d.ids {
					if dels[id] {
						sel.Clear(i)
						live--
					}
				}
			}
			if live == 0 {
				continue
			}
			if !fn(d.ids, d.rows, sel) {
				return nil
			}
		}
	}
	return nil
}

// ScanLive streams every live frozen row in row_id order — the
// row-at-a-time form index rebuilds use, which read outside any snapshot.
func (s *Store) ScanLive(fn func(rid rel.RowID, row rel.Row) bool) error {
	return s.ScanBlocks(nil, true, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		for i := range ids {
			if !sel.Has(i) {
				continue
			}
			if !fn(ids[i], page.Row(i)) {
				return false
			}
		}
		return true
	})
}

// Compact runs at most one merge: the lowest level holding at least
// Fanout segments has its oldest Fanout segments merged into one
// next-level segment, dropping tombstoned rows. Returns the number of
// segments merged (0 if nothing to do). One merge per call is the rate
// limit: the maintenance loop calls this between batches so foreground
// latency is unaffected.
func (s *Store) Compact() (int, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	fanout := s.fanout()
	s.mu.RLock()
	var inputs []*segment
	levels := make(map[int][]*segment)
	minLevel := -1
	for _, g := range s.segs {
		levels[g.level] = append(levels[g.level], g)
		if len(levels[g.level]) >= fanout && (minLevel < 0 || g.level < minLevel) {
			minLevel = g.level
		}
	}
	if minLevel >= 0 {
		inputs = append(inputs, levels[minLevel][:fanout]...)
	}
	s.mu.RUnlock()
	if len(inputs) == 0 {
		return 0, nil
	}

	// Snapshot tombstones: rows dead now are purged from the merged
	// output; tombstones added while we merge are re-applied at swap.
	snaps := make([]map[rel.RowID]bool, len(inputs))
	for i, g := range inputs {
		snaps[i] = g.snapshotDeleted()
	}

	sb := newSegmentBuilder(s.schema, inputs[0].level+1, s.blockRows())
	rows := 0
	var buf scanBuf // the builder copies every value it adds
	for i, g := range inputs {
		for bi := range g.blocks {
			b, err := s.readBlock(g, bi, buf.comp)
			if err != nil {
				return 0, err
			}
			buf.comp = b.comp
			d, err := b.decode(s.schema, true, &buf)
			if err != nil {
				return 0, err
			}
			for j, id := range d.ids {
				if snaps[i][id] {
					continue
				}
				if err := sb.add(id, d.rows.Row(j)); err != nil {
					return 0, err
				}
				rows++
			}
		}
	}

	var merged *segment
	if rows > 0 {
		g, compBytes, err := s.appendSegment(sb)
		if err != nil {
			return 0, err
		}
		s.compactByt.Add(compBytes)
		merged = g
	}

	// frozen.compactMerge: crash here leaves the merged bytes as orphaned
	// garbage in the append-only block file; the directory (and the
	// manifest the next checkpoint would write) still reference the
	// intact input segments.
	if err := fault.Eval(fault.FrozenCompactMerge); err != nil {
		return 0, fmt.Errorf("frozen: compact merge: %w", err)
	}

	s.mu.Lock()
	// Re-apply tombstones added during the merge to the new segment.
	if merged != nil {
		for i, g := range inputs {
			g.mu.Lock()
			for rid, del := range g.deleted {
				if del && !snaps[i][rid] {
					merged.deleted[rid] = true
				}
			}
			g.mu.Unlock()
		}
	}
	out := s.segs[:0:0]
	replaced := false
	for _, g := range s.segs {
		if isInput(inputs, g) {
			if !replaced && merged != nil {
				out = append(out, merged)
			}
			replaced = true
			continue
		}
		out = append(out, g)
	}
	s.segs = out
	s.mu.Unlock()
	s.compacts.Add(1)
	for _, g := range inputs {
		s.dropCached(g)
	}
	return len(inputs), nil
}

func isInput(inputs []*segment, g *segment) bool {
	for _, in := range inputs {
		if in == g {
			return true
		}
	}
	return false
}

// CompactAll merges until no level is over its fanout. Returns the total
// number of segments merged.
func (s *Store) CompactAll() (int, error) {
	total := 0
	for {
		n, err := s.Compact()
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
		total += n
	}
}

// CompressedBytes returns the block file size (diagnostics, Exp 4).
func (s *Store) CompressedBytes() int64 { return s.bf.Size() }

// Export captures the segment directory for a checkpoint manifest.
func (s *Store) Export() []SegmentMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentMeta, 0, len(s.segs))
	for _, g := range s.segs {
		m := SegmentMeta{
			Level:     g.level,
			Flat:      g.flat,
			FirstRID:  g.firstRID,
			LastRID:   g.lastRID,
			NumRows:   g.numRows,
			Ref:       g.ref,
			HeaderLen: g.headerLen,
			CRC:       g.crc,
		}
		g.mu.Lock()
		for rid, d := range g.deleted {
			if d {
				m.Deleted = append(m.Deleted, rid)
			}
		}
		g.mu.Unlock()
		sort.Slice(m.Deleted, func(i, j int) bool { return m.Deleted[i] < m.Deleted[j] })
		out = append(out, m)
	}
	return out
}

// Import rebuilds the segment directory from a manifest. The store must
// be empty; the block file must be the one the refs point into. Each
// segment's header is read back and CRC-verified.
func (s *Store) Import(metas []SegmentMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) != 0 {
		return fmt.Errorf("frozen: Import on non-empty store")
	}
	for _, m := range metas {
		if m.HeaderLen <= 0 || int64(m.HeaderLen) > int64(m.Ref.Len) {
			return fmt.Errorf("frozen: manifest header length %d out of range", m.HeaderLen)
		}
		hdr, err := s.bf.ReadBlock(storage.BlockRef{Offset: m.Ref.Offset, Len: int32(m.HeaderLen)})
		if err != nil {
			return err
		}
		g, err := decodeSegmentHeader(hdr)
		if err == nil {
			err = g.checkBody(int64(m.Ref.Len) - int64(m.HeaderLen))
		}
		if err != nil {
			return fmt.Errorf("frozen: import segment at %d: %w", m.Ref.Offset, err)
		}
		if g.firstRID != m.FirstRID || g.lastRID != m.LastRID || g.numRows != m.NumRows {
			return fmt.Errorf("frozen: segment at %d disagrees with manifest", m.Ref.Offset)
		}
		g.ref = m.Ref
		g.headerLen = m.HeaderLen
		g.crc = m.CRC
		for _, rid := range m.Deleted {
			g.deleted[rid] = true
		}
		if n := len(s.segs); n > 0 && g.firstRID <= s.segs[n-1].lastRID {
			return fmt.Errorf("frozen: manifest segments overlap at %d", g.firstRID)
		}
		s.segs = append(s.segs, g)
	}
	return nil
}
