// Package pax implements the PAX (Partition Attributes Across) page layout
// PhoebeDB uses for hot and cold base-table pages (§5.2).
//
// Within a page, values are grouped by column rather than by row: each
// fixed-width column occupies a contiguous minipage so scans and aggregates
// touch only the cache lines of the columns they read — the property the
// paper targets for future HTAP support. Variable-length columns are stored
// as per-slot byte strings packed into the serialized image.
//
// Pages support in-place updates (§5.2): hot and cold pages are mutated
// directly, with before-images preserved separately in the in-memory UNDO
// log rather than in the page.
package pax

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"phoebedb/internal/rel"
)

// viewStr returns a string sharing b's backing bytes without copying.
//
// Safety contract: var-column backing slices are content-immutable — SetCol
// always installs a freshly allocated slice (never writes into the old one),
// and Insert/Delete/SplitInto only move or nil the per-slot slice headers.
// A view therefore stays valid for the life of the Go heap object it points
// at, regardless of later updates to the slot; retaining one merely pins
// that allocation. This is what makes allocation-free point reads possible:
// materializing a row with string columns costs zero copies.
func viewStr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Page is a PAX-organized slotted page holding up to Cap rows of one
// relation. It is not safe for concurrent use; callers synchronize through
// the owning B-Tree node's latch.
type Page struct {
	schema *rel.Schema
	cap    int
	n      int
	fixed  [][]byte   // per fixed column: cap * 8-byte minipage
	vars   [][][]byte // per var column: slot -> bytes
	fixIdx []int      // column -> index into fixed, or -1
	varIdx []int      // column -> index into vars, or -1
	view   bool       // strips alias a serialized image (View); read-only
}

// NewPage allocates an empty page for the schema with capacity cap rows.
func NewPage(schema *rel.Schema, cap int) *Page {
	if cap <= 0 {
		panic("pax: non-positive page capacity")
	}
	p := &Page{
		schema: schema,
		cap:    cap,
		fixIdx: make([]int, schema.NumCols()),
		varIdx: make([]int, schema.NumCols()),
	}
	for i, c := range schema.Cols {
		if w := c.Type.FixedWidth(); w > 0 {
			p.fixIdx[i] = len(p.fixed)
			p.varIdx[i] = -1
			p.fixed = append(p.fixed, make([]byte, cap*w))
		} else {
			p.fixIdx[i] = -1
			p.varIdx[i] = len(p.vars)
			p.vars = append(p.vars, make([][]byte, cap))
		}
	}
	return p
}

// mustOwn guards the mutators: a View page's strips are a shared image.
func (p *Page) mustOwn() {
	if p.view {
		panic("pax: write to a read-only page view")
	}
}

// Schema returns the page's schema.
func (p *Page) Schema() *rel.Schema { return p.schema }

// Len returns the number of rows stored.
func (p *Page) Len() int { return p.n }

// Cap returns the page's row capacity.
func (p *Page) Cap() int { return p.cap }

// Full reports whether the page has no free slots.
func (p *Page) Full() bool { return p.n == p.cap }

// Insert places row at slot `at`, shifting later slots right. at must be in
// [0, Len()] and the page must not be full.
func (p *Page) Insert(at int, row rel.Row) error {
	p.mustOwn()
	if p.Full() {
		return fmt.Errorf("pax: page full (%d rows)", p.cap)
	}
	if at < 0 || at > p.n {
		return fmt.Errorf("pax: insert position %d out of range [0,%d]", at, p.n)
	}
	if err := row.Conforms(p.schema); err != nil {
		return err
	}
	for ci := range p.schema.Cols {
		if fi := p.fixIdx[ci]; fi >= 0 {
			mp := p.fixed[fi]
			copy(mp[(at+1)*8:(p.n+1)*8], mp[at*8:p.n*8])
		} else {
			vc := p.vars[p.varIdx[ci]]
			copy(vc[at+1:p.n+1], vc[at:p.n])
		}
	}
	p.n++
	p.set(at, row)
	return nil
}

// Append places row in the next free slot and returns its slot number.
func (p *Page) Append(row rel.Row) (int, error) {
	if err := p.Insert(p.n, row); err != nil {
		return -1, err
	}
	return p.n - 1, nil
}

// Delete removes the row at slot `at`, shifting later slots left.
func (p *Page) Delete(at int) error {
	p.mustOwn()
	if at < 0 || at >= p.n {
		return fmt.Errorf("pax: delete position %d out of range [0,%d)", at, p.n)
	}
	for ci := range p.schema.Cols {
		if fi := p.fixIdx[ci]; fi >= 0 {
			mp := p.fixed[fi]
			copy(mp[at*8:(p.n-1)*8], mp[(at+1)*8:p.n*8])
		} else {
			vc := p.vars[p.varIdx[ci]]
			copy(vc[at:p.n-1], vc[at+1:p.n])
			vc[p.n-1] = nil
		}
	}
	p.n--
	return nil
}

func (p *Page) set(at int, row rel.Row) {
	for ci, v := range row {
		p.SetCol(at, ci, v)
	}
}

// SetRow overwrites every column of slot `at` in place.
func (p *Page) SetRow(at int, row rel.Row) error {
	if at < 0 || at >= p.n {
		return fmt.Errorf("pax: slot %d out of range [0,%d)", at, p.n)
	}
	if err := row.Conforms(p.schema); err != nil {
		return err
	}
	p.set(at, row)
	return nil
}

// SetCol updates one column of slot `at` in place. The caller must have
// captured the before-image for UNDO if required.
func (p *Page) SetCol(at, col int, v rel.Value) {
	p.mustOwn()
	if fi := p.fixIdx[col]; fi >= 0 {
		mp := p.fixed[fi][at*8 : at*8+8]
		switch v.Kind {
		case rel.TInt64:
			binary.LittleEndian.PutUint64(mp, uint64(v.I))
		case rel.TFloat64:
			binary.LittleEndian.PutUint64(mp, math.Float64bits(v.F))
		}
		return
	}
	b := make([]byte, len(v.S))
	copy(b, v.S)
	p.vars[p.varIdx[col]][at] = b
}

// Col reads one column of slot `at`. String values are zero-copy views of
// the page's backing bytes (see viewStr for why that is safe).
func (p *Page) Col(at, col int) rel.Value {
	t := p.schema.Cols[col].Type
	if fi := p.fixIdx[col]; fi >= 0 {
		u := binary.LittleEndian.Uint64(p.fixed[fi][at*8 : at*8+8])
		if t == rel.TInt64 {
			return rel.Int(int64(u))
		}
		return rel.Float(math.Float64frombits(u))
	}
	return rel.Str(viewStr(p.vars[p.varIdx[col]][at]))
}

// Row materializes the full tuple at slot `at`.
func (p *Page) Row(at int) rel.Row {
	out := make(rel.Row, p.schema.NumCols())
	for ci := range out {
		out[ci] = p.Col(at, ci)
	}
	return out
}

// ReadRowInto materializes slot `at` into dst, reusing its storage. dst must
// have schema-many entries.
func (p *Page) ReadRowInto(at int, dst rel.Row) {
	for ci := range dst {
		dst[ci] = p.Col(at, ci)
	}
}

// ScanCol invokes fn for every row's value of one column, in slot order.
// This is the PAX fast path: for fixed columns it walks a single minipage.
func (p *Page) ScanCol(col int, fn func(slot int, v rel.Value)) {
	t := p.schema.Cols[col].Type
	if fi := p.fixIdx[col]; fi >= 0 {
		mp := p.fixed[fi]
		for i := 0; i < p.n; i++ {
			u := binary.LittleEndian.Uint64(mp[i*8 : i*8+8])
			if t == rel.TInt64 {
				fn(i, rel.Int(int64(u)))
			} else {
				fn(i, rel.Float(math.Float64frombits(u)))
			}
		}
		return
	}
	vc := p.vars[p.varIdx[col]]
	for i := 0; i < p.n; i++ {
		fn(i, rel.Str(viewStr(vc[i])))
	}
}

// SplitInto moves the upper half of the page's rows into dst (which must be
// empty and share the schema) and returns the number of rows moved.
func (p *Page) SplitInto(dst *Page) int {
	p.mustOwn()
	half := p.n / 2
	moved := p.n - half
	for i := half; i < p.n; i++ {
		if _, err := dst.Append(p.Row(i)); err != nil {
			panic(fmt.Sprintf("pax: split overflow: %v", err))
		}
	}
	// Truncate: clear var refs so the backing arrays can be collected.
	for _, vc := range p.vars {
		for i := half; i < p.n; i++ {
			vc[i] = nil
		}
	}
	p.n = half
	return moved
}

// --- Serialization ---------------------------------------------------------

const pageMagic uint32 = 0x50415831 // "PAX1"

// SerializedSize returns the exact byte length Serialize will produce.
func (p *Page) SerializedSize() int {
	sz := 4 + 4 // magic + n
	for range p.fixed {
		sz += p.n * 8
	}
	for _, vc := range p.vars {
		for i := 0; i < p.n; i++ {
			sz += 4 + len(vc[i])
		}
	}
	return sz
}

// Serialize appends the page image to dst: magic, row count, fixed
// minipages truncated to n rows, then length-prefixed var values column by
// column (the minipage layout on disk as well as in memory).
func (p *Page) Serialize(dst []byte) []byte {
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], pageMagic)
	dst = append(dst, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(p.n))
	dst = append(dst, b4[:]...)
	for _, mp := range p.fixed {
		dst = append(dst, mp[:p.n*8]...)
	}
	for _, vc := range p.vars {
		for i := 0; i < p.n; i++ {
			binary.LittleEndian.PutUint32(b4[:], uint32(len(vc[i])))
			dst = append(dst, b4[:]...)
			dst = append(dst, vc[i]...)
		}
	}
	return dst
}

// imageRows validates a Serialize image's prefix and returns its row count.
func imageRows(img []byte) (int, error) {
	if len(img) < 8 {
		return 0, fmt.Errorf("pax: truncated page image")
	}
	if binary.LittleEndian.Uint32(img[:4]) != pageMagic {
		return 0, fmt.Errorf("pax: bad page magic %#x", binary.LittleEndian.Uint32(img[:4]))
	}
	return int(binary.LittleEndian.Uint32(img[4:8])), nil
}

// Deserialize reconstructs a page from a Serialize image. cap must be at
// least the stored row count.
func Deserialize(schema *rel.Schema, cap int, img []byte) (*Page, error) {
	n, err := imageRows(img)
	if err != nil {
		return nil, err
	}
	if n > cap {
		return nil, fmt.Errorf("pax: stored %d rows exceeds capacity %d", n, cap)
	}
	p := NewPage(schema, cap)
	off := 8
	for _, mp := range p.fixed {
		if off+n*8 > len(img) {
			return nil, fmt.Errorf("pax: truncated fixed minipage")
		}
		copy(mp, img[off:off+n*8])
		off += n * 8
	}
	for _, vc := range p.vars {
		for i := 0; i < n; i++ {
			if off+4 > len(img) {
				return nil, fmt.Errorf("pax: truncated var length")
			}
			l := int(binary.LittleEndian.Uint32(img[off : off+4]))
			off += 4
			if off+l > len(img) {
				return nil, fmt.Errorf("pax: truncated var value")
			}
			vc[i] = append([]byte(nil), img[off:off+l]...)
			off += l
		}
	}
	p.n = n
	return p, nil
}

// View builds a read-only page over a Serialize image without copying it:
// every fixed strip and every var value is a sub-slice of img, so the cost
// is the slice headers, not the data. The page is full (Cap == Len) and
// its mutators panic. The caller must never modify or reuse img: strings
// handed out by Col/Row alias it (viewStr) and may outlive the page. The
// price is retention: one kept string pins all of img, not just its own
// bytes as with Deserialize, so a consumer that buffers a row from each of
// N views holds N whole images until it drops them.
func View(schema *rel.Schema, img []byte) (*Page, error) {
	n, err := imageRows(img)
	if err != nil {
		return nil, err
	}
	nfixed := fixedCols(schema)
	nvar := schema.NumCols() - nfixed
	// The length check also bounds n before anything is sized by it.
	if nfixed*8*n+nvar*4*n > len(img)-8 {
		return nil, fmt.Errorf("pax: truncated page image")
	}
	off := 8 + nfixed*8*n
	vals := make([][]byte, nvar*n)
	for i := range vals {
		if off+4 > len(img) {
			return nil, fmt.Errorf("pax: truncated var length")
		}
		l := int(binary.LittleEndian.Uint32(img[off : off+4]))
		off += 4
		if l > len(img)-off {
			return nil, fmt.Errorf("pax: truncated var value")
		}
		vals[i] = img[off : off+l : off+l]
		off += l
	}
	return ViewColumns(schema, n, img[8:8+nfixed*8*n], vals), nil
}

// ViewColumns builds a read-only page of n rows over decoded columns
// without copying them: fixed holds every fixed-width column's n*8-byte
// minipage and vals every var-width column's n values, each laid end to
// end in schema order. The View contract applies to both: the caller
// never modifies or reuses them. A nil vals builds a page without its
// var-width values, for a consumer that reads fixed-width columns only;
// reading a var-width column of it panics.
func ViewColumns(schema *rel.Schema, n int, fixed []byte, vals [][]byte) *Page {
	nc := schema.NumCols()
	idx := make([]int, 2*nc)
	p := &Page{schema: schema, cap: n, n: n, fixIdx: idx[:nc:nc], varIdx: idx[nc:], view: true}
	nfixed := fixedCols(schema)
	p.fixed = make([][]byte, 0, nfixed)
	if vals != nil {
		p.vars = make([][][]byte, 0, nc-nfixed)
	}
	for i, c := range schema.Cols {
		if c.Type.FixedWidth() > 0 {
			p.fixIdx[i], p.varIdx[i] = len(p.fixed), -1
			p.fixed = append(p.fixed, fixed[:n*8:n*8])
			fixed = fixed[n*8:]
		} else {
			p.fixIdx[i], p.varIdx[i] = -1, len(p.vars)
			if vals != nil {
				p.vars = append(p.vars, vals[:n:n])
				vals = vals[n:]
			}
		}
	}
	return p
}

// fixedCols counts the schema's fixed-width columns.
func fixedCols(schema *rel.Schema) int {
	n := 0
	for _, c := range schema.Cols {
		if c.Type.FixedWidth() > 0 {
			n++
		}
	}
	return n
}
