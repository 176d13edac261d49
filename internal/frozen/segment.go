package frozen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// Segment on-disk format ("PCS1"): a self-describing run of sorted cold
// rows stored as independently compressed column-strip blocks.
//
//	magic u32 | version u32 | level u32 | flags u8 | numRows u32 | numBlocks u32
//	per block: firstRID u64 | lastRID u64 | numRows u32 | rawLen u32 | compOff u32 | compLen u32
//	bloomPresent u8 [ bloom: hashes u32, numWords u32, words u64[] ]
//	zonesPresent u8 [ numZones u16, per zone: col u16, kind u8, min u64, max u64 ]
//	numBlockZones u32 | per block, per zone in segment-zone order: min u64, max u64   (version 2)
//	headerCRC u32
//	body: concatenated DEFLATE blocks, each raw = count u32, ids u64[], pax image
//
// compOff is relative to the body start (header end), so a point read
// issues one small sub-range read of exactly the block it needs. The
// header CRC covers everything before it; the whole-segment CRC recorded
// in the manifest covers header+body and is what backup verification
// checks.
//
// Zone invariant: a zone bounds every value of its column in the rows it
// summarises — the segment zones over the segment, block zone (b, z) over
// block b — so numBlockZones is numBlocks x numZones and every block zone
// nests inside its segment zone. Version 1 headers end after the segment
// zones; they decode as "no block zones", which prunes nothing. The writer
// emits version 2 only.
const (
	segmentMagic   uint32 = 0x50435331 // "PCS1"
	segmentVersion uint32 = 2

	segFlagFlat byte = 1 << 0 // legacy flat segment (one block, no bloom/zones): read, never written
)

// blockTargetBytes is the raw block size (count | ids | pax image) at
// which the builder cuts a block: the unit of decompression is what a
// point read inflates to return one row, so it is sized for that read,
// while flate still finds redundancy across a few dozen rows.
const blockTargetBytes = 8 << 10

// DefaultBlockRows caps the rows in one block and sizes the builder's page.
// blockTargetBytes binds first for any row of 16 raw bytes or more: the
// `big` benchmark table's 104-byte rows give 78-row blocks.
const DefaultBlockRows = 512

// DefaultFanout is the per-level segment count that triggers a merge into
// the next level.
const DefaultFanout = 4

func errTruncated(what string) error {
	return fmt.Errorf("frozen: truncated segment: %s", what)
}

// zone is a per-column-strip min/max summary. Only fixed-width columns
// carry zones; min/max hold the raw 8-byte minipage encoding interpreted
// by kind.
type zone struct {
	col  uint16
	kind rel.Type
	min  uint64
	max  uint64
}

// prunes reports whether the predicate provably rejects every row whose
// column value lies within the zone.
func (z zone) prunes(p rel.ColPred) bool {
	switch z.kind {
	case rel.TInt64:
		if p.Val.Kind != rel.TInt64 {
			return false
		}
		return prunesOrdered(int64(z.min), int64(z.max), p.Val.I, p.Op)
	case rel.TFloat64:
		if p.Val.Kind != rel.TFloat64 {
			return false
		}
		return prunesOrdered(math.Float64frombits(z.min), math.Float64frombits(z.max), p.Val.F, p.Op)
	}
	return false
}

func prunesOrdered[T int64 | float64](min, max, v T, op rel.CmpOp) bool {
	switch op {
	case rel.CmpEq:
		return v < min || v > max
	case rel.CmpNe:
		return min == v && max == v
	case rel.CmpLt:
		return min >= v
	case rel.CmpLe:
		return min > v
	case rel.CmpGt:
		return max <= v
	case rel.CmpGe:
		return max < v
	}
	return false
}

// zonesPrune reports whether any predicate alone rejects the whole zone
// range (predicates are conjunctive).
func zonesPrune(zones []zone, preds []rel.ColPred) bool {
	if len(zones) == 0 || len(preds) == 0 {
		return false
	}
	for _, p := range preds {
		for _, z := range zones {
			if int(z.col) == p.Col && z.prunes(p) {
				return true
			}
		}
	}
	return false
}

// segBlock is one compressed block's directory entry.
type segBlock struct {
	firstRID rel.RowID
	lastRID  rel.RowID
	numRows  uint32
	rawLen   uint32
	compOff  uint32
	compLen  uint32
}

// segment is an immutable on-disk run plus its mutable read-side state
// (tombstones, per-block warm counters).
type segment struct {
	firstRID  rel.RowID
	lastRID   rel.RowID
	numRows   int
	level     int
	flat      bool
	ref       storage.BlockRef // whole segment: header + body
	headerLen int
	crc       uint32 // whole-segment CRC (manifest / backup verification)
	blocks    []segBlock
	filter    *bloom
	zones     []zone
	// blockZones holds len(zones) entries per block, block-major; empty
	// for flat and version-1 segments.
	blockZones []zone

	reads []atomic.Uint32 // per block, drives warming

	mu      sync.Mutex
	deleted map[rel.RowID]bool
}

// blockFor locates the block holding rid, or -1.
func (g *segment) blockFor(rid rel.RowID) int {
	lo, hi := 0, len(g.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.blocks[mid].lastRID < rid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(g.blocks) || g.blocks[lo].firstRID > rid {
		return -1
	}
	return lo
}

// zonesOf returns block i's zones (nil when the segment carries none).
func (g *segment) zonesOf(i int) []zone {
	if len(g.blockZones) == 0 {
		return nil
	}
	nz := len(g.zones)
	return g.blockZones[i*nz : (i+1)*nz]
}

// bodyRef returns the sub-range BlockRef of block i's compressed bytes.
func (g *segment) bodyRef(i int) storage.BlockRef {
	b := g.blocks[i]
	return storage.BlockRef{
		Offset: g.ref.Offset + int64(g.headerLen) + int64(b.compOff),
		Len:    int32(b.compLen),
	}
}

// --- Builder -----------------------------------------------------------------

// segmentBuilder accumulates rows in rid order and emits one encoded
// segment of independently compressed blocks. A block is closed before a
// row that would take its raw image past blockTargetBytes (a row larger
// than that gets a block of its own) and once it holds blockRows rows.
// Zones fold per block and the segment's zones are the fold of its
// blocks'; the bloom filter covers every row id. One page, one raw buffer
// and one compressor serve every block of the build: flate.NewWriter
// allocates ~1.2 MB.
type segmentBuilder struct {
	schema    *rel.Schema
	level     int
	blockRows int

	ids    []rel.RowID // all rids, for the bloom filter
	blocks []segBlock
	body   bytes.Buffer
	fw     *flate.Writer
	raw    []byte

	curIDs  []rel.RowID
	curPage *pax.Page
	curRaw  int // the open block's raw image size

	curZones   []zone // the open block's; nil until its first row
	blockZones []zone
	zones      []zone
	rawTotal   int64
}

func newSegmentBuilder(schema *rel.Schema, level int, blockRows int) *segmentBuilder {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &segmentBuilder{schema: schema, level: level, blockRows: blockRows,
		curPage: pax.NewPage(schema, blockRows), curRaw: blockOverhead}
}

// blockOverhead is a block's raw size before its first row: the count,
// then the pax image's magic and row count.
const blockOverhead = 4 + 8

// rawRowBytes is what one row adds to its block's raw image: its id, an
// 8-byte minipage slot per fixed-width value, a length-prefixed string per
// var-width one.
func rawRowBytes(row rel.Row) int {
	n := 8
	for _, v := range row {
		if v.Kind.FixedWidth() > 0 {
			n += 8
		} else {
			n += 4 + len(v.S)
		}
	}
	return n
}

func (sb *segmentBuilder) add(id rel.RowID, row rel.Row) error {
	if n := len(sb.ids); n > 0 && id <= sb.ids[n-1] {
		return fmt.Errorf("frozen: row_ids not ascending (%d after %d)", id, sb.ids[n-1])
	}
	rowBytes := rawRowBytes(row)
	if len(sb.curIDs) > 0 && sb.curRaw+rowBytes > blockTargetBytes {
		if err := sb.flushBlock(); err != nil {
			return err
		}
	}
	if _, err := sb.curPage.Append(row); err != nil {
		return err
	}
	sb.curRaw += rowBytes
	sb.curIDs = append(sb.curIDs, id)
	sb.ids = append(sb.ids, id)
	sb.foldZones(row)
	if len(sb.curIDs) >= sb.blockRows {
		return sb.flushBlock()
	}
	return nil
}

// foldZones widens the open block's zones to cover row.
func (sb *segmentBuilder) foldZones(row rel.Row) {
	if sb.curZones == nil {
		for ci, c := range sb.schema.Cols {
			if c.Type.FixedWidth() <= 0 {
				continue
			}
			sb.curZones = append(sb.curZones, zone{col: uint16(ci), kind: c.Type, min: rawBits(row[ci]), max: rawBits(row[ci])})
		}
		return
	}
	for i := range sb.curZones {
		z := &sb.curZones[i]
		v := rawBits(row[int(z.col)])
		z.widen(v, v)
	}
}

// widen extends the zone to cover [min, max].
func (z *zone) widen(min, max uint64) {
	if zoneLess(z.kind, min, z.min) {
		z.min = min
	}
	if zoneLess(z.kind, z.max, max) {
		z.max = max
	}
}

func rawBits(v rel.Value) uint64 {
	if v.Kind == rel.TFloat64 {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

func zoneLess(kind rel.Type, a, b uint64) bool {
	if kind == rel.TFloat64 {
		return math.Float64frombits(a) < math.Float64frombits(b)
	}
	return int64(a) < int64(b)
}

func (sb *segmentBuilder) flushBlock() error {
	n := len(sb.curIDs)
	if n == 0 {
		return nil
	}
	raw := binary.LittleEndian.AppendUint32(sb.raw[:0], uint32(n))
	for _, id := range sb.curIDs {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(id))
	}
	raw = sb.curPage.Serialize(raw)
	sb.raw = raw

	compOff := sb.body.Len()
	if sb.fw == nil {
		fw, err := flate.NewWriter(&sb.body, flate.BestSpeed)
		if err != nil {
			return err
		}
		sb.fw = fw
	} else {
		sb.fw.Reset(&sb.body)
	}
	if _, err := sb.fw.Write(raw); err != nil {
		return err
	}
	if err := sb.fw.Close(); err != nil {
		return err
	}
	sb.rawTotal += int64(len(raw))
	sb.blocks = append(sb.blocks, segBlock{
		firstRID: sb.curIDs[0],
		lastRID:  sb.curIDs[n-1],
		numRows:  uint32(n),
		rawLen:   uint32(len(raw)),
		compOff:  uint32(compOff),
		compLen:  uint32(sb.body.Len() - compOff),
	})
	if sb.zones == nil {
		sb.zones = append(sb.zones, sb.curZones...)
	}
	for i, z := range sb.curZones {
		sb.zones[i].widen(z.min, z.max)
	}
	sb.blockZones = append(sb.blockZones, sb.curZones...)
	sb.curPage.Reset()
	sb.curIDs = sb.curIDs[:0]
	sb.curRaw = blockOverhead
	sb.curZones = nil
	return nil
}

// finish encodes the full segment. Returns the segment bytes and the
// header length (everything before the block body).
func (sb *segmentBuilder) finish() (data []byte, headerLen int, err error) {
	if err := sb.flushBlock(); err != nil {
		return nil, 0, err
	}
	if len(sb.ids) == 0 {
		return nil, 0, fmt.Errorf("frozen: empty segment")
	}
	h := &segment{level: sb.level, numRows: len(sb.ids), blocks: sb.blocks,
		zones: sb.zones, blockZones: sb.blockZones, filter: newBloom(len(sb.ids))}
	for _, id := range sb.ids {
		h.filter.add(uint64(id))
	}
	hdr := h.encodeHeader()
	return append(hdr, sb.body.Bytes()...), len(hdr), nil
}

// encodeHeader emits the segment's version-2 header, CRC trailer included.
func (g *segment) encodeHeader() []byte {
	var hdr []byte
	var b8 [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		hdr = append(hdr, b8[:4]...)
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		hdr = append(hdr, b8[:]...)
	}
	putU32(segmentMagic)
	putU32(segmentVersion)
	putU32(uint32(g.level))
	var flags byte
	if g.flat {
		flags |= segFlagFlat
	}
	hdr = append(hdr, flags)
	putU32(uint32(g.numRows))
	putU32(uint32(len(g.blocks)))
	for _, b := range g.blocks {
		putU64(uint64(b.firstRID))
		putU64(uint64(b.lastRID))
		putU32(b.numRows)
		putU32(b.rawLen)
		putU32(b.compOff)
		putU32(b.compLen)
	}
	if g.filter == nil {
		hdr = append(hdr, 0)
	} else {
		hdr = append(hdr, 1)
		hdr = g.filter.encode(hdr)
	}
	if len(g.zones) == 0 {
		hdr = append(hdr, 0)
	} else {
		hdr = append(hdr, 1)
		binary.LittleEndian.PutUint16(b8[:2], uint16(len(g.zones)))
		hdr = append(hdr, b8[:2]...)
		for _, z := range g.zones {
			binary.LittleEndian.PutUint16(b8[:2], z.col)
			hdr = append(hdr, b8[:2]...)
			hdr = append(hdr, byte(z.kind))
			putU64(z.min)
			putU64(z.max)
		}
	}
	putU32(uint32(len(g.blockZones)))
	for _, z := range g.blockZones {
		putU64(z.min)
		putU64(z.max)
	}
	putU32(crc32.ChecksumIEEE(hdr))
	return hdr
}

// decodeSegmentHeader parses a segment header (hdr must be exactly the
// header bytes, CRC trailer included).
func decodeSegmentHeader(hdr []byte) (*segment, error) {
	if len(hdr) < 4 {
		return nil, errTruncated("header")
	}
	if got := crc32.ChecksumIEEE(hdr[:len(hdr)-4]); got != binary.LittleEndian.Uint32(hdr[len(hdr)-4:]) {
		return nil, fmt.Errorf("frozen: segment header CRC mismatch")
	}
	buf := hdr[:len(hdr)-4]
	need := func(n int) error {
		if len(buf) < n {
			return errTruncated("header field")
		}
		return nil
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
		return v
	}
	if err := need(4 + 4 + 4 + 1 + 4 + 4); err != nil {
		return nil, err
	}
	if u32() != segmentMagic {
		return nil, fmt.Errorf("frozen: bad segment magic")
	}
	version := u32()
	if version != 1 && version != segmentVersion {
		return nil, fmt.Errorf("frozen: unsupported segment version %d", version)
	}
	g := &segment{deleted: make(map[rel.RowID]bool)}
	g.level = int(u32())
	flags := buf[0]
	buf = buf[1:]
	if flags&^segFlagFlat != 0 {
		return nil, fmt.Errorf("frozen: unknown segment flags %#x", flags)
	}
	g.flat = flags&segFlagFlat != 0
	g.numRows = int(u32())
	nb := int(u32())
	if nb <= 0 || nb > 1<<20 {
		return nil, fmt.Errorf("frozen: bad segment block count %d", nb)
	}
	if err := need(nb * 32); err != nil {
		return nil, err
	}
	g.blocks = make([]segBlock, nb)
	for i := range g.blocks {
		b := &g.blocks[i]
		b.firstRID = rel.RowID(u64())
		b.lastRID = rel.RowID(u64())
		b.numRows = u32()
		b.rawLen = u32()
		b.compOff = u32()
		b.compLen = u32()
	}
	g.firstRID = g.blocks[0].firstRID
	g.lastRID = g.blocks[nb-1].lastRID
	// present reads a section's presence byte: exactly 0 or 1.
	present := func() (bool, error) {
		if err := need(1); err != nil {
			return false, err
		}
		b := buf[0]
		buf = buf[1:]
		if b > 1 {
			return false, fmt.Errorf("frozen: bad section presence byte %#x", b)
		}
		return b == 1, nil
	}
	hasBloom, err := present()
	if err != nil {
		return nil, err
	}
	if hasBloom {
		g.filter, buf, err = decodeBloom(buf)
		if err != nil {
			return nil, err
		}
	}
	hasZones, err := present()
	if err != nil {
		return nil, err
	}
	if hasZones {
		if err := need(2); err != nil {
			return nil, err
		}
		nz := int(binary.LittleEndian.Uint16(buf[:2]))
		buf = buf[2:]
		// The version-1 writer marked the section present even for a table
		// with no fixed-width column; version 2 has one spelling of "none".
		if nz == 0 && version >= 2 {
			return nil, fmt.Errorf("frozen: empty zone section marked present")
		}
		if err := need(nz * 19); err != nil {
			return nil, err
		}
		if nz > 0 {
			g.zones = make([]zone, nz)
		}
		for i := range g.zones {
			g.zones[i].col = binary.LittleEndian.Uint16(buf[:2])
			buf = buf[2:]
			g.zones[i].kind = rel.Type(buf[0])
			buf = buf[1:]
			g.zones[i].min = u64()
			g.zones[i].max = u64()
		}
	}
	if version >= 2 {
		if err := need(4); err != nil {
			return nil, err
		}
		nbz := int(u32())
		if nbz != nb*len(g.zones) {
			return nil, fmt.Errorf("frozen: %d block zones for %d blocks x %d zones", nbz, nb, len(g.zones))
		}
		if err := need(nbz * 16); err != nil {
			return nil, err
		}
		g.blockZones = make([]zone, nbz)
		for i := range g.blockZones {
			z := g.zones[i%len(g.zones)]
			z.min, z.max = u64(), u64()
			g.blockZones[i] = z
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("frozen: %d trailing header bytes", len(buf))
	}
	g.reads = make([]atomic.Uint32, nb)
	return g, nil
}

// inflater is a reusable DEFLATE reader over its own source.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// inflate expands comp, which must hold exactly len(raw) bytes, into raw.
// The inflater is pooled (flate.Resetter); what still allocates per call is
// compress/flate rebuilding its Huffman link tables.
func inflate(raw, comp []byte) error {
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // a parked inflater must not pin the caller's buffer
		inflaters.Put(z)
	}()
	z.src.Reset(comp)
	z.fr.(flate.Resetter).Reset(&z.src, nil)
	if _, err := io.ReadFull(z.fr, raw); err != nil {
		return err
	}
	// The stream must end where the directory says it does.
	var one [1]byte
	if n, err := z.fr.Read(one[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("stream runs past its directory entry (%v)", err)
	}
	return nil
}

// maxInflate bounds DEFLATE's expansion (RFC 1951: under 1032:1), so a
// forged rawLen cannot size an allocation its compressed bytes could
// never fill.
const maxInflate = 1032

// decodeBlock expands one compressed block — the only block decoder. The
// raw image is one fresh rawLen-byte buffer and is never recycled, because
// the page's strips and var values are sub-slices of it and the strings
// Row/Col hand out (pax viewStr) alias it for as long as any consumer
// keeps them — the executor's sort and hash-build stages do, past the scan
// callback. Each kept string therefore pins its block's whole image (see
// pax.View); a stage buffering one row per block holds every image it
// scanned. A nil schema decodes the row ids only.
func decodeBlock(schema *rel.Schema, comp []byte, rawLen uint32) (blockData, error) {
	if uint64(rawLen) > maxInflate*uint64(len(comp))+64 {
		return blockData{}, fmt.Errorf("frozen: block raw length %d impossible for %d compressed bytes", rawLen, len(comp))
	}
	raw := make([]byte, rawLen)
	if err := inflate(raw, comp); err != nil {
		return blockData{}, fmt.Errorf("frozen: decompress block (raw length %d): %w", rawLen, err)
	}
	if len(raw) < 4 {
		return blockData{}, errTruncated("block row count")
	}
	n := int(binary.LittleEndian.Uint32(raw[:4]))
	off := 4
	if len(raw)-off < 8*n {
		return blockData{}, errTruncated("block ids")
	}
	d := blockData{ids: make([]rel.RowID, n)}
	for i := range d.ids {
		d.ids[i] = rel.RowID(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
	if schema == nil {
		return d, nil
	}
	var err error
	if d.rows, err = pax.View(schema, raw[off:]); err != nil {
		return blockData{}, err
	}
	if d.rows.Len() != n {
		return blockData{}, fmt.Errorf("frozen: block pax rows %d, ids %d", d.rows.Len(), n)
	}
	return d, nil
}

// VerifySegmentBytes checks a raw segment image against its manifest
// record without needing the table schema: whole-segment CRC, header CRC
// and shape (a version-2 header must carry one block zone per block per
// segment zone), block directory ordering, per-block decompression, row-id
// ordering, bloom membership of every stored row id, and that every zone
// has min <= max with block zones nested inside their segment zone. Used
// by backup verification.
func VerifySegmentBytes(data []byte, m SegmentMeta) error {
	if int64(len(data)) != int64(m.Ref.Len) {
		return fmt.Errorf("frozen: segment length %d, manifest says %d", len(data), m.Ref.Len)
	}
	if crc := crc32.ChecksumIEEE(data); crc != m.CRC {
		return fmt.Errorf("frozen: segment CRC %#x, manifest says %#x", crc, m.CRC)
	}
	if m.HeaderLen <= 0 || m.HeaderLen > len(data) {
		return fmt.Errorf("frozen: bad manifest header length %d", m.HeaderLen)
	}
	g, err := decodeSegmentHeader(data[:m.HeaderLen])
	if err != nil {
		return err
	}
	if g.firstRID != m.FirstRID || g.lastRID != m.LastRID || g.numRows != m.NumRows ||
		g.level != m.Level || g.flat != m.Flat {
		return fmt.Errorf("frozen: segment header disagrees with manifest record")
	}
	body := data[m.HeaderLen:]
	total := 0
	var prev rel.RowID
	for i, b := range g.blocks {
		if b.firstRID > b.lastRID || (i > 0 && b.firstRID <= prev) {
			return fmt.Errorf("frozen: block %d rid range out of order", i)
		}
		prev = b.lastRID
		if int64(b.compOff)+int64(b.compLen) > int64(len(body)) {
			return fmt.Errorf("frozen: block %d overruns segment body", i)
		}
		d, err := decodeBlock(nil, body[b.compOff:b.compOff+b.compLen], b.rawLen)
		if err != nil {
			return fmt.Errorf("frozen: block %d: %w", i, err)
		}
		ids := d.ids
		if len(ids) != int(b.numRows) {
			return fmt.Errorf("frozen: block %d has %d rows, directory says %d", i, len(ids), b.numRows)
		}
		for j, id := range ids {
			if id < b.firstRID || id > b.lastRID || (j > 0 && id <= ids[j-1]) {
				return fmt.Errorf("frozen: block %d row id %d out of order/range", i, id)
			}
			if g.filter != nil && !g.filter.mayContain(uint64(id)) {
				return fmt.Errorf("frozen: bloom filter missing row id %d", id)
			}
		}
		total += len(ids)
	}
	for _, z := range g.zones {
		if zoneLess(z.kind, z.max, z.min) {
			return fmt.Errorf("frozen: zone map for col %d has min > max", z.col)
		}
	}
	for i, z := range g.blockZones {
		sz := g.zones[i%len(g.zones)]
		if zoneLess(z.kind, z.max, z.min) || zoneLess(z.kind, z.min, sz.min) || zoneLess(z.kind, sz.max, z.max) {
			return fmt.Errorf("frozen: block %d zone for col %d is empty or outside its segment zone", i/len(g.zones), z.col)
		}
	}
	if total != g.numRows {
		return fmt.Errorf("frozen: segment rows %d, header says %d", total, g.numRows)
	}
	return nil
}
