package frozen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// Segment on-disk format ("PCS1"): a self-describing run of sorted cold
// rows stored as independently decodable column-strip blocks.
//
//	magic u32 | version u32 | level u32 | flags u8 | numRows u32 | numBlocks u32
//	per block: firstRID u64 | lastRID u64 | numRows u32 | rawLen u32 | compOff u32 | compLen u32
//	bloomPresent u8 [ bloom: hashes u32, numWords u32, words u64[] ]
//	zonesPresent u8 [ numZones u16, per zone: col u16, kind u8, min u64, max u64 ]
//	numBlockZones u32 | per block, per zone in segment-zone order: min u64, max u64   (version >= 2)
//	headerCRC u32
//	body: concatenated blocks
//
// A version-3 or -4 block keeps fixed-width columns out of the compressor:
//
//	count u32 | numCols u16 | ids: FOR strip
//	per column, in schema order: kind u8, then
//	    int64: FOR strip | float64: raw u64[count] | string: nothing
//	[ if any string column: varRawLen u32 | var stream running to the CRC ]
//	blockCRC u32 (CRC-32C of everything before it)
//
//	FOR strip: base u64 | width u8 (0-64) | u64[ceil(count*width/64)]
//
// A frame-of-reference (FOR) strip stores each value as its offset from
// the strip's minimum, width bits apiece, low bits first. The var stream
// decodes to every string column's length-prefixed values (len u32,
// bytes), column by column, so a point read decodes only its block's
// strings, and those only as far as its own, and a scan over fixed-width
// columns decodes nothing. The two
// versions differ only in the var stream's compression: DEFLATE in version
// 3, one LZ4 block-format stream (lz.go) in version 4. A version 1 or 2
// block is one DEFLATE stream of count u32 | ids u64[] | pax image.
// rawLen is that image's size in every version: it drives the block cut
// and the raw-bytes counter, and a version-3 or -4 decoder checks its
// block against it.
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
// nests inside its segment zone. Zones are pax.Zone values and prune by
// the rule hot pages prune by (pax.Zone.Prunes). Version 1 headers end
// after the segment zones; they decode as "no block zones", which prunes
// nothing. Version 3 and 4 headers are version 2 headers; only the blocks
// differ. The writer emits version 4 only; a merge rewrites older
// segments as version 4.
const (
	segmentMagic   uint32 = 0x50435331 // "PCS1"
	segmentVersion uint32 = 4

	segFlagFlat byte = 1 << 0 // legacy flat segment (one block, no bloom/zones): read, never written
)

// blockTargetBytes is the raw block size (count | ids | pax image) at
// which the builder cuts a block: the block is what a point read decodes
// to return one row, so it is sized for that read, while the compressor
// still finds redundancy across the strings of a few dozen rows.
const blockTargetBytes = 8 << 10

// DefaultBlockRows caps the rows in one block. blockTargetBytes binds
// first for any row of 16 raw bytes or more: the `big` benchmark table's
// 104-byte rows give 78-row blocks.
const DefaultBlockRows = 512

// DefaultFanout is the per-level segment count that triggers a merge into
// the next level.
const DefaultFanout = 4

func errTruncated(what string) error {
	return fmt.Errorf("frozen: truncated segment: %s", what)
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
	version   uint32 // picks the block decoder
	flat      bool
	ref       storage.BlockRef // whole segment: header + body
	headerLen int
	crc       uint32 // whole-segment CRC (manifest / backup verification)
	blocks    []segBlock
	filter    *bloom
	zones     []pax.Zone
	// blockZones holds len(zones) entries per block, block-major; empty
	// for flat and version-1 segments.
	blockZones []pax.Zone

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
func (g *segment) zonesOf(i int) []pax.Zone {
	if len(g.blockZones) == 0 {
		return nil
	}
	nz := len(g.zones)
	return g.blockZones[i*nz : (i+1)*nz]
}

// BlockRangeError reports a block directory entry whose bytes would lie
// outside its segment's body.
type BlockRangeError struct {
	Block   int
	Off     uint32 // the entry's compOff
	Len     uint32 // the entry's compLen
	BodyLen int64  // the segment body's length
}

func (e *BlockRangeError) Error() string {
	return fmt.Sprintf("frozen: block %d at body offset %d, length %d, overruns a segment body of %d bytes",
		e.Block, e.Off, e.Len, e.BodyLen)
}

// checkBody checks that every block of the directory lies inside a
// segment body of bodyLen bytes: what keeps bodyRef's reads inside the
// segment. Import, appendSegment's self-check and VerifySegmentBytes all
// call it.
func (g *segment) checkBody(bodyLen int64) error {
	for i, b := range g.blocks {
		if int64(b.compOff)+int64(b.compLen) > bodyLen {
			return &BlockRangeError{Block: i, Off: b.compOff, Len: b.compLen, BodyLen: bodyLen}
		}
	}
	return nil
}

// bodyRef returns the sub-range BlockRef of block i's compressed bytes;
// checkBody has held it inside the segment.
func (g *segment) bodyRef(i int) storage.BlockRef {
	b := g.blocks[i]
	return storage.BlockRef{
		Offset: g.ref.Offset + int64(g.headerLen) + int64(b.compOff),
		Len:    int32(b.compLen),
	}
}

// --- Builder -----------------------------------------------------------------

// segmentBuilder accumulates rows in rid order and emits one encoded
// version-4 segment of independently decodable blocks. A block is closed
// before a row that would take its raw image past blockTargetBytes (a row
// larger than that gets a block of its own) and once it holds blockRows
// rows. Zones fold per block and the segment's zones are the fold of its
// blocks'; the bloom filter covers every row id. One set of column
// buffers and one matcher serve every block of the build.
type segmentBuilder struct {
	schema    *rel.Schema
	level     int
	blockRows int

	ids    []rel.RowID // all rids, for the bloom filter
	blocks []segBlock
	body   []byte
	lz     lzEncoder
	vars   []byte // the open block's var stream, before compression

	start  int      // index in ids of the open block's first row
	cols   []colBuf // the open block's values, per column
	curRaw int      // the open block's raw image size

	curZones   []pax.Zone // the open block's; nil until its first row
	blockZones []pax.Zone
	zones      []pax.Zone
	rawTotal   int64
}

// colBuf is one column of the open block, in the form flushBlock writes.
type colBuf struct {
	ints   []int64 // int64: the values, FOR-packed at flush
	floats []byte  // float64: raw little-endian words
	vals   []byte  // string: length-prefixed values, the var stream's input
}

func newSegmentBuilder(schema *rel.Schema, level int, blockRows int) *segmentBuilder {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &segmentBuilder{schema: schema, level: level, blockRows: blockRows,
		cols: make([]colBuf, schema.NumCols()), curRaw: blockOverhead}
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
	if err := row.Conforms(sb.schema); err != nil {
		return err
	}
	rowBytes := rawRowBytes(row)
	if len(sb.ids) > sb.start && sb.curRaw+rowBytes > blockTargetBytes {
		sb.flushBlock()
	}
	for ci, v := range row {
		cb := &sb.cols[ci]
		switch v.Kind {
		case rel.TInt64:
			cb.ints = append(cb.ints, v.I)
		case rel.TFloat64:
			cb.floats = binary.LittleEndian.AppendUint64(cb.floats, math.Float64bits(v.F))
		default:
			cb.vals = binary.LittleEndian.AppendUint32(cb.vals, uint32(len(v.S)))
			cb.vals = append(cb.vals, v.S...)
		}
	}
	sb.curRaw += rowBytes
	sb.ids = append(sb.ids, id)
	sb.foldZones(row)
	if len(sb.ids)-sb.start >= sb.blockRows {
		sb.flushBlock()
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
			sb.curZones = append(sb.curZones, pax.Zone{Col: uint16(ci), Kind: c.Type, Min: pax.RawBits(row[ci]), Max: pax.RawBits(row[ci])})
		}
		return
	}
	for i := range sb.curZones {
		z := &sb.curZones[i]
		v := pax.RawBits(row[int(z.Col)])
		z.Widen(v, v)
	}
}

// flushBlock writes the open block in the version-4 layout: the strips,
// then one LZ stream of every string column's values, then the CRC.
func (sb *segmentBuilder) flushBlock() {
	ids := sb.ids[sb.start:]
	n := len(ids)
	if n == 0 {
		return
	}
	le := binary.LittleEndian
	compOff := len(sb.body)
	b := le.AppendUint32(sb.body, uint32(n))
	b = le.AppendUint16(b, uint16(len(sb.cols)))
	b = appendFOR(b, ids)
	nvar := 0
	sb.vars = sb.vars[:0]
	for ci, c := range sb.schema.Cols {
		cb := &sb.cols[ci]
		b = append(b, byte(c.Type))
		switch c.Type {
		case rel.TInt64:
			b = appendFOR(b, cb.ints)
		case rel.TFloat64:
			b = append(b, cb.floats...)
		default:
			nvar++
			sb.vars = append(sb.vars, cb.vals...)
		}
	}
	if nvar > 0 {
		b = le.AppendUint32(b, uint32(len(sb.vars)))
		b = sb.lz.encode(b, sb.vars)
	}
	sb.body = le.AppendUint32(b, crc32.Checksum(b[compOff:], blockCRC))

	sb.rawTotal += int64(sb.curRaw)
	sb.blocks = append(sb.blocks, segBlock{
		firstRID: ids[0],
		lastRID:  ids[n-1],
		numRows:  uint32(n),
		rawLen:   uint32(sb.curRaw),
		compOff:  uint32(compOff),
		compLen:  uint32(len(sb.body) - compOff),
	})
	if sb.zones == nil {
		sb.zones = append(sb.zones, sb.curZones...)
	}
	for i, z := range sb.curZones {
		sb.zones[i].Widen(z.Min, z.Max)
	}
	sb.blockZones = append(sb.blockZones, sb.curZones...)
	for ci := range sb.cols {
		cb := &sb.cols[ci]
		cb.ints, cb.floats, cb.vals = cb.ints[:0], cb.floats[:0], cb.vals[:0]
	}
	sb.start = len(sb.ids)
	sb.curRaw = blockOverhead
	sb.curZones = nil
}

// appendFOR appends vals as a frame-of-reference strip: their minimum as
// the base, the bit width of the largest offset from it, then every offset
// packed that many bits apiece, low bits first, into little-endian u64
// words. The span is taken in uint64, so a column holding both MinInt64
// and MaxInt64 gets width 64 rather than overflowing.
func appendFOR[T ~uint64 | ~int64](dst []byte, vals []T) []byte {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := uint(bits.Len64(uint64(hi) - uint64(lo)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	dst = append(dst, byte(w))
	var word uint64
	used := uint(0) // bits of word filled
	for _, v := range vals {
		d := uint64(v) - uint64(lo)
		word |= d << used
		if used += w; used >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, word)
			used -= 64
			word = 0
			if used > 0 {
				word = d >> (w - used)
			}
		}
	}
	if used > 0 {
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	return dst
}

// finish encodes the full segment. Returns the segment bytes and the
// header length (everything before the block body).
func (sb *segmentBuilder) finish() (data []byte, headerLen int, err error) {
	sb.flushBlock()
	if len(sb.ids) == 0 {
		return nil, 0, fmt.Errorf("frozen: empty segment")
	}
	h := &segment{level: sb.level, version: segmentVersion, numRows: len(sb.ids), blocks: sb.blocks,
		zones: sb.zones, blockZones: sb.blockZones, filter: newBloom(len(sb.ids))}
	for _, id := range sb.ids {
		h.filter.add(uint64(id))
	}
	hdr := h.encodeHeader()
	return append(hdr, sb.body...), len(hdr), nil
}

// encodeHeader emits the segment's header in its version (2, 3 or 4: the
// same fields), CRC trailer included.
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
	putU32(g.version)
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
			binary.LittleEndian.PutUint16(b8[:2], z.Col)
			hdr = append(hdr, b8[:2]...)
			hdr = append(hdr, byte(z.Kind))
			putU64(z.Min)
			putU64(z.Max)
		}
	}
	putU32(uint32(len(g.blockZones)))
	for _, z := range g.blockZones {
		putU64(z.Min)
		putU64(z.Max)
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
	if version < 1 || version > segmentVersion {
		return nil, fmt.Errorf("frozen: unsupported segment version %d", version)
	}
	g := &segment{version: version, deleted: make(map[rel.RowID]bool)}
	g.level = int(u32())
	flags := buf[0]
	buf = buf[1:]
	if flags&^segFlagFlat != 0 {
		return nil, fmt.Errorf("frozen: unknown segment flags %#x", flags)
	}
	g.flat = flags&segFlagFlat != 0
	if g.flat && version >= 3 {
		return nil, fmt.Errorf("frozen: flat segment in version %d", version)
	}
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
			g.zones = make([]pax.Zone, nz)
		}
		for i := range g.zones {
			g.zones[i].Col = binary.LittleEndian.Uint16(buf[:2])
			buf = buf[2:]
			g.zones[i].Kind = rel.Type(buf[0])
			buf = buf[1:]
			g.zones[i].Min = u64()
			g.zones[i].Max = u64()
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
		g.blockZones = make([]pax.Zone, nbz)
		for i := range g.blockZones {
			z := g.zones[i%len(g.zones)]
			z.Min, z.Max = u64(), u64()
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

// inflates counts compressed streams decoded, process-wide (Inflates).
var inflates atomic.Int64

// Inflates returns how many compressed streams the cold tier has decoded
// in this process — a version-3 or -4 block's var stream, a version-1 or
// -2 block's one stream: a test hook that shows which reads paid for one.
func Inflates() int64 { return inflates.Load() }

// inflate expands comp, which must hold exactly len(raw) bytes, into raw:
// the DEFLATE decoder of version-1 to -3 blocks. The inflater is pooled
// (flate.Resetter); what still allocates per call is compress/flate
// rebuilding its Huffman link tables.
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
// forged raw length cannot size an allocation its compressed bytes could
// never fill.
const maxInflate = 1032

// storedBlock is one block as the block file stores it, parsed once when
// it is read: a version-3 or -4 block's CRC, strips and lengths are
// checked and located (parseStrips), a version-1 or -2 block is its one
// DEFLATE stream. It is read-only, so one value is shared by every reader;
// the point-read cache holds it, once admitted, charged at len(comp).
type storedBlock struct {
	comp    []byte
	version uint32
	rawLen  uint32
	strips  stripBlock // version 3 and 4 only: views over comp
}

// scanBuf is what one scan reuses from block to block (ScanBlocks): the
// stored bytes of each block it reads from the file, and the unpacked row
// ids and fixed-width strips. A consumer borrows those only for its
// callback. A block's var values always get a fresh buffer, because
// strings kept past the callback alias them.
type scanBuf struct {
	comp  []byte
	ids   []rel.RowID
	fixed []byte
}

// blockData is a decoded block: row ids and a read-only page view over
// the decoder's buffers (see decode).
type blockData struct {
	ids  []rel.RowID
	rows *pax.Page
}

// parseBlock parses block bytes of a segment of the given version. A nil
// schema parses without checking the column kinds against one.
func parseBlock(schema *rel.Schema, version uint32, comp []byte, rawLen uint32) (storedBlock, error) {
	b := storedBlock{comp: comp, version: version, rawLen: rawLen}
	if version < 3 {
		return b, nil
	}
	var err error
	b.strips, err = parseStrips(schema, version, comp, rawLen)
	return b, err
}

// decodeBlock parses and decodes one block (see storedBlock.decode).
func decodeBlock(schema *rel.Schema, version uint32, comp []byte, rawLen uint32, strs bool) (blockData, error) {
	b, err := parseBlock(schema, version, comp, rawLen)
	if err != nil {
		return blockData{}, err
	}
	return b.decode(schema, strs, nil)
}

// decode unpacks the whole block — what scans, compaction, ExtractLive and
// VerifySegmentBytes read, with one branch per block layout and one
// result: row ids and a read-only pax page. The var values are never
// recycled, because the page's var values are sub-slices of their buffer
// and the strings Row/Col hand out (pax viewStr) alias them for as long
// as any consumer keeps them — the executor's sort and hash-build stages
// do, past the scan callback. Each kept string therefore pins its block's
// var values (see pax.View); a stage buffering one row per block holds
// those of every block it scanned. With buf, a version-3 or -4 block's ids
// and fixed-width strips go into buf's buffers, which the next decode
// into buf overwrites; without it, into fresh ones. A nil schema decodes
// and checks the whole block but returns the row ids only. strs=false
// leaves a version-3 or -4 block's var stream undecoded and the page
// without its string columns, for a consumer that reads fixed-width
// columns only.
func (b *storedBlock) decode(schema *rel.Schema, strs bool, buf *scanBuf) (blockData, error) {
	if b.version >= 3 {
		return b.strips.unpack(schema, strs, buf)
	}
	if uint64(b.rawLen) > maxInflate*uint64(len(b.comp))+64 {
		return blockData{}, fmt.Errorf("frozen: block raw length %d impossible for %d compressed bytes", b.rawLen, len(b.comp))
	}
	raw := make([]byte, b.rawLen)
	inflates.Add(1)
	if err := inflate(raw, b.comp); err != nil {
		return blockData{}, fmt.Errorf("frozen: decompress block (raw length %d): %w", b.rawLen, err)
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

// has reports whether the block holds rid: a version-3 or -4 block
// answers from its id strip, decoding nothing; an older one decodes its
// row ids.
func (b *storedBlock) has(rid rel.RowID) (bool, error) {
	if b.version >= 3 {
		_, ok := b.strips.find(rid)
		return ok, nil
	}
	d, err := b.decode(nil, true, nil)
	if err != nil {
		return false, err
	}
	i := sort.Search(len(d.ids), func(i int) bool { return d.ids[i] >= rid })
	return i < len(d.ids) && d.ids[i] == rid, nil
}

// blockCRC is the version-3 and -4 block checksum's polynomial: CRC-32C,
// which the hardware computes on the platforms this runs on.
var blockCRC = crc32.MakeTable(crc32.Castagnoli)

// maxStripRows bounds a version-3 or -4 block's row count before anything
// is sized by it: the builder closes a block before its raw image passes
// blockTargetBytes, and every row adds at least its 8-byte id.
const maxStripRows = blockTargetBytes / 8

// stripBlock is a parsed version-3 or -4 block: views over its stored
// bytes that parseStrips has checked, so reading them cannot fail.
type stripBlock struct {
	n, ncols, nvar int
	ids            forStrip
	cols           []byte // the per-column section: kind bytes and strips
	varRaw         int    // the var stream's decoded length
	varComp        []byte // the var stream, running to the CRC
	lz             bool   // version 4: varComp is LZ, not DEFLATE
}

// parseStrips parses a version-3 or -4 block (see the format comment) and
// is the one place its layout is checked: the CRC, the row count, the
// column count and kinds against the schema (unless it is nil), every
// strip's bit width and length, the var stream's length against what its
// compressed bytes and its values' length prefixes allow, and the
// raw-length identity with the directory's rawLen. The var stream's own
// framing is checked where it is decoded whole (decodeVars), the ids'
// order where they are unpacked or admitted to the point-read cache.
func parseStrips(schema *rel.Schema, version uint32, body []byte, rawLen uint32) (stripBlock, error) {
	le := binary.LittleEndian
	if len(body) < 4 {
		return stripBlock{}, errTruncated("block checksum")
	}
	end := len(body) - 4
	if crc32.Checksum(body[:end], blockCRC) != le.Uint32(body[end:]) {
		return stripBlock{}, fmt.Errorf("frozen: block checksum mismatch")
	}
	r := stripReader{b: body[:end]}
	h := r.take(6, "block row and column counts")
	if r.err != nil {
		return stripBlock{}, r.err
	}
	p := stripBlock{n: int(le.Uint32(h)), ncols: int(le.Uint16(h[4:])), lz: version >= 4}
	if p.n == 0 || p.n > maxStripRows {
		return stripBlock{}, fmt.Errorf("frozen: block row count %d", p.n)
	}
	if schema != nil && p.ncols != schema.NumCols() {
		return stripBlock{}, fmt.Errorf("frozen: block has %d columns, schema %d", p.ncols, schema.NumCols())
	}
	p.ids = r.forStrip(p.n, "row ids")
	p.cols = r.b
	for c := 0; c < p.ncols; c++ {
		kind, _ := r.column(p.n)
		if r.err != nil {
			return stripBlock{}, r.err
		}
		if schema != nil && kind != schema.Cols[c].Type {
			return stripBlock{}, fmt.Errorf("frozen: block column %d is %v, schema says %v", c, kind, schema.Cols[c].Type)
		}
		if kind == rel.TString {
			p.nvar++
		}
	}
	p.cols = p.cols[:len(p.cols)-len(r.b)]
	if p.nvar > 0 {
		if h := r.take(4, "var stream length"); h != nil {
			p.varRaw = int(le.Uint32(h))
		}
	}
	if r.err != nil {
		return stripBlock{}, r.err
	}
	p.varComp = r.b
	if p.nvar == 0 && len(p.varComp) != 0 {
		return stripBlock{}, fmt.Errorf("frozen: %d trailing block bytes", len(p.varComp))
	}
	maxExpand := uint64(maxInflate)
	if p.lz {
		maxExpand = lzMaxExpand
	}
	if p.nvar > 0 && (p.varRaw < 4*p.n*p.nvar || uint64(p.varRaw) > maxExpand*uint64(len(p.varComp))+64) {
		return stripBlock{}, fmt.Errorf("frozen: var stream length %d impossible for %d rows in %d bytes", p.varRaw, p.n, len(p.varComp))
	}
	if want := uint64(blockOverhead) + uint64(8*p.n)*uint64(1+p.ncols-p.nvar) + uint64(p.varRaw); uint64(rawLen) != want {
		return stripBlock{}, fmt.Errorf("frozen: block raw length %d, directory says %d", want, rawLen)
	}
	return p, nil
}

// unpack decodes the whole block (see storedBlock.decode): it unpacks the
// row ids, which must ascend strictly, every fixed-width strip into one
// buffer of 8-byte minipages (buf's, if given) and, when strs is set,
// decodes the var stream into one fresh buffer its values alias.
func (p *stripBlock) unpack(schema *rel.Schema, strs bool, buf *scanBuf) (blockData, error) {
	le := binary.LittleEndian
	if buf == nil {
		buf = new(scanBuf) // nothing to reuse
	}
	if cap(buf.ids) < p.n {
		buf.ids = make([]rel.RowID, p.n)
	}
	d := blockData{ids: buf.ids[:p.n]}
	for i := range d.ids {
		d.ids[i] = rel.RowID(p.ids.at(i))
		if i > 0 && d.ids[i] <= d.ids[i-1] {
			return blockData{}, fmt.Errorf("frozen: block row ids not ascending at %d", i)
		}
	}
	var vals [][]byte
	if p.nvar > 0 && (strs || schema == nil) {
		if schema != nil {
			vals = make([][]byte, p.nvar*p.n)
		}
		if err := p.decodeVars(make([]byte, p.varRaw), vals); err != nil {
			return blockData{}, err
		}
	}
	if schema == nil {
		return d, nil
	}
	if need := (p.ncols - p.nvar) * 8 * p.n; cap(buf.fixed) < need {
		buf.fixed = make([]byte, 0, need)
	}
	fixed := buf.fixed[:0]
	r := stripReader{b: p.cols}
	for c := 0; c < p.ncols; c++ {
		switch kind, f := r.column(p.n); kind {
		case rel.TFloat64:
			fixed = append(fixed, f.words...)
		case rel.TInt64:
			for i := 0; i < p.n; i++ {
				fixed = le.AppendUint64(fixed, f.at(i))
			}
		}
	}
	d.rows = pax.ViewColumns(schema, p.n, fixed, vals)
	return d, nil
}

// find binary-searches the packed id strip for rid, reading each probed id
// in place. The writer stores ids ascending; a block whose ids do not
// ascend, which unpack refuses, can hide a row from find but never
// returns another row's.
func (p *stripBlock) find(rid rel.RowID) (int, bool) {
	i := sort.Search(p.n, func(i int) bool { return rel.RowID(p.ids.at(i)) >= rid })
	return i, i < p.n && rel.RowID(p.ids.at(i)) == rid
}

// decodeVars decodes the whole var stream into raw, which is p.varRaw
// long, and walks all of its framing: nvar×n length-prefixed values,
// column by column, that fill raw exactly. With vals, which is nvar×n
// long, it stores value k — string column k/n, row k%n — in vals[k],
// aliasing raw.
func (p *stripBlock) decodeVars(raw []byte, vals [][]byte) error {
	inflates.Add(1)
	var err error
	if p.lz {
		err = lzDecode(raw, p.varComp)
	} else {
		err = inflate(raw, p.varComp)
	}
	if err != nil {
		return fmt.Errorf("frozen: decode var stream (raw length %d): %w", p.varRaw, err)
	}
	off := 0
	for k := 0; k < p.nvar*p.n; k++ {
		if len(raw)-off < 4 {
			return errTruncated("var value length")
		}
		l := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if l > len(raw)-off {
			return errTruncated("var value")
		}
		if vals != nil {
			vals[k] = raw[off : off+l : off+l]
		}
		off += l
	}
	if off != len(raw) {
		return fmt.Errorf("frozen: %d trailing var stream bytes", len(raw)-off)
	}
	return nil
}

// admit checks a block whole before it enters the point-read cache. For
// a version-3 or -4 block parseStrips has checked its CRC and strips;
// admit checks that its row ids ascend and decodes its var stream in full
// (decodeVars), into pooled scratch that it returns for the caller to
// serve its row from and then put back (nil when the block has no string
// column). A block that passes is exactly one that unpacks whole. A
// version-1 or -2 block is one DEFLATE stream that every point read
// decodes and checks whole, so admit checks nothing there.
func (b *storedBlock) admit() (*[]byte, error) {
	if b.version < 3 {
		return nil, nil
	}
	p := &b.strips
	if !p.ids.ascends(p.n) {
		return nil, fmt.Errorf("frozen: block row ids not ascending")
	}
	var vars *[]byte
	if p.nvar > 0 {
		vars = getScratch(p.varRaw)
		if err := p.decodeVars(*vars, nil); err != nil {
			putScratch(vars)
			return nil, err
		}
	}
	return vars, nil
}

// get returns the row stored under rid, if the block holds it, in row
// (grown to the schema's width; nil gets a fresh row). A version-3 or -4
// block reads it in place: each fixed-width value from its strip and each
// string copied out of the var stream, so the row owns every string it
// holds and pins no block. vars is admit's whole decode of the stream,
// when the read is the miss that admitted the block; otherwise the stream
// is decoded into pooled scratch only as far as the row's last string. An
// older block is decoded whole.
func (b *storedBlock) get(schema *rel.Schema, rid rel.RowID, row rel.Row, vars *[]byte) (rel.Row, bool, error) {
	p := &b.strips
	var d blockData
	var i int
	var ok bool
	if b.version < 3 {
		var err error
		if d, err = b.decode(schema, true, nil); err != nil {
			return nil, false, err
		}
		i = sort.Search(len(d.ids), func(i int) bool { return d.ids[i] >= rid })
		ok = i < len(d.ids) && d.ids[i] == rid
	} else {
		i, ok = p.find(rid)
	}
	if !ok {
		return nil, false, nil
	}
	if cap(row) < schema.NumCols() {
		row = make(rel.Row, schema.NumCols())
	}
	row = row[:schema.NumCols()]
	if b.version < 3 {
		d.rows.ReadRowInto(i, row)
		return row, true, nil
	}
	r := stripReader{b: p.cols}
	for c := range row {
		switch kind, f := r.column(p.n); kind {
		case rel.TInt64:
			row[c] = rel.Int(int64(f.at(i)))
		case rel.TFloat64:
			row[c] = rel.Float(math.Float64frombits(f.at(i)))
		}
	}
	if p.nvar == 0 {
		return row, true, nil
	}
	z := lzStream{src: p.varComp}
	if vars != nil {
		z.dst, z.d, z.done = *vars, len(*vars), true
	} else {
		buf := getScratch(p.varRaw)
		defer putScratch(buf)
		z.dst = *buf
		inflates.Add(1)
		if !p.lz { // a DEFLATE stream is decoded whole
			if err := inflate(z.dst, p.varComp); err != nil {
				return nil, false, fmt.Errorf("frozen: decode var stream (raw length %d): %w", p.varRaw, err)
			}
			z.d, z.done = len(z.dst), true
		}
	}
	if err := p.readStrings(schema, i, row, &z); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// readStrings copies row i's strings into row, walking the var stream's
// framing from its start and decoding z only as far as the row's last
// value. Value k is string column k/n's row k%n, so with nvar string
// columns the last value read is (nvar-1)*n+i.
func (p *stripBlock) readStrings(schema *rel.Schema, i int, row rel.Row, z *lzStream) error {
	raw := z.dst
	off, c := 0, -1
	for j := 0; j < p.nvar; j++ {
		c++ // string column j
		for schema.Cols[c].Type != rel.TString {
			c++
		}
		rows := p.n
		if j == p.nvar-1 {
			rows = i + 1
		}
		for r := 0; r < rows; r++ {
			if err := z.need(off + 4); err != nil {
				return err
			}
			l := int(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
			if l > len(raw)-off {
				return errTruncated("var value")
			}
			if r == i {
				if err := z.need(off + l); err != nil {
					return err
				}
				row[c] = rel.Str(string(raw[off : off+l]))
			}
			off += l
		}
	}
	return nil
}

// varScratch pools the buffers point reads decode var streams into. A
// point read copies its strings out, so nothing aliases a buffer once it
// is back in the pool.
var varScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, blockTargetBytes)
	return &b
}}

// getScratch returns a pooled buffer of length n.
func getScratch(n int) *[]byte {
	p := varScratch.Get().(*[]byte)
	if cap(*p) < n { // a block holding one oversize row
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer to the pool; one larger than
// blockTargetBytes, for a block holding one oversize row, goes to the GC.
func putScratch(p *[]byte) {
	if p != nil && cap(*p) <= blockTargetBytes {
		varScratch.Put(p)
	}
}

// stripReader walks a version-3 or -4 block; its first short read sticks
// as err.
type stripReader struct {
	b   []byte
	err error
}

// take consumes the next k bytes, or returns nil and sets err.
func (r *stripReader) take(k int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if k < 0 || k > len(r.b) {
		r.err = errTruncated(what)
		return nil
	}
	s := r.b[:k:k]
	r.b = r.b[k:]
	return s
}

// column consumes one column of n values: its kind byte, then an int64
// column's FOR strip or a float64 column's raw words, which read as a
// strip of base 0 and width 64. A string column has no strip here.
func (r *stripReader) column(n int) (rel.Type, forStrip) {
	k := r.take(1, "column kind")
	if k == nil {
		return 0, forStrip{}
	}
	switch kind := rel.Type(k[0]); kind {
	case rel.TInt64:
		return kind, r.forStrip(n, "int strip")
	case rel.TFloat64:
		return kind, forStrip{width: 64, words: r.take(8*n, "float strip")}
	case rel.TString:
		return kind, forStrip{}
	default:
		r.err = fmt.Errorf("frozen: block column has unknown kind %d", kind)
		return kind, forStrip{}
	}
}

// forStrip consumes a frame-of-reference strip of n values.
func (r *stripReader) forStrip(n int, what string) forStrip {
	h := r.take(9, what)
	if h == nil {
		return forStrip{}
	}
	f := forStrip{base: binary.LittleEndian.Uint64(h), width: uint(h[8])}
	if f.width > 64 {
		r.err = fmt.Errorf("frozen: %s bit width %d", what, f.width)
		return forStrip{}
	}
	f.words = r.take((n*int(f.width)+63)/64*8, what)
	return f
}

// ascends reports whether the strip's n values (base plus each packed
// offset, mod 2^64, as at reads them) ascend strictly, reading its words
// in one pass: admission's check of a block's row ids, which an unpack
// checks as it unpacks them. They do when the offsets ascend strictly and
// the last one does not carry its value past 2^64.
func (f forStrip) ascends(n int) bool {
	if f.width == 0 {
		return n < 2
	}
	w := f.width
	mask := ^uint64(0) >> (64 - w)
	var acc, prev uint64
	have := uint(0) // bits of acc not yet consumed
	for i, next := 0, 0; i < n; i++ {
		var v uint64
		if have >= w {
			v = acc & mask
			acc >>= w
			have -= w
		} else { // v's high bits start the next word
			word := binary.LittleEndian.Uint64(f.words[next:])
			next += 8
			v = (acc | word<<have) & mask
			acc = word >> (w - have)
			have += 64 - w
		}
		if i > 0 && v <= prev {
			return false
		}
		prev = v
	}
	return prev <= ^uint64(0)-f.base // no id wraps past 2^64
}

// forStrip is a parsed frame-of-reference strip (see appendFOR).
type forStrip struct {
	base  uint64
	width uint
	words []byte // ceil(n*width/64) little-endian u64 words
}

// at returns value i: O(1), whatever the width.
func (f forStrip) at(i int) uint64 {
	if f.width == 0 {
		return f.base
	}
	bit := uint(i) * f.width
	w, sh := bit/64*8, bit%64
	v := binary.LittleEndian.Uint64(f.words[w:]) >> sh
	if sh+f.width > 64 {
		v |= binary.LittleEndian.Uint64(f.words[w+8:]) << (64 - sh)
	}
	return f.base + v&(^uint64(0)>>(64-f.width))
}

// VerifySegmentBytes checks a raw segment image against its manifest
// record without needing the table schema: whole-segment CRC, header CRC
// and shape (a version-2, -3 or -4 header must carry one block zone per
// block per segment zone), block directory ordering and bounds
// (checkBody), every block decoded in full (for version 3 and 4: its CRC,
// every strip's bit width and length, and a var stream that decodes to
// exactly its recorded length of well-framed values), row-id ordering,
// bloom membership of every stored row id, and that every zone has
// min <= max with block zones nested inside their segment zone. Used by
// backup verification.
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
	if err := g.checkBody(int64(len(body))); err != nil {
		return err
	}
	total := 0
	var prev rel.RowID
	for i, b := range g.blocks {
		if b.firstRID > b.lastRID || (i > 0 && b.firstRID <= prev) {
			return fmt.Errorf("frozen: block %d rid range out of order", i)
		}
		prev = b.lastRID
		d, err := decodeBlock(nil, g.version, body[b.compOff:b.compOff+b.compLen], b.rawLen, true)
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
		if pax.ZoneLess(z.Kind, z.Max, z.Min) {
			return fmt.Errorf("frozen: zone map for col %d has min > max", z.Col)
		}
	}
	for i, z := range g.blockZones {
		sz := g.zones[i%len(g.zones)]
		if pax.ZoneLess(z.Kind, z.Max, z.Min) || pax.ZoneLess(z.Kind, z.Min, sz.Min) || pax.ZoneLess(z.Kind, sz.Max, z.Max) {
			return fmt.Errorf("frozen: block %d zone for col %d is empty or outside its segment zone", i/len(g.zones), z.Col)
		}
	}
	if total != g.numRows {
		return fmt.Errorf("frozen: segment rows %d, header says %d", total, g.numRows)
	}
	return nil
}
