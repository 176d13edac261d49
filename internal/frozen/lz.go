package frozen

import (
	"encoding/binary"
	"fmt"
)

// The var stream of a version-4 block is one LZ4 block-format stream
// (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md): a run of
// sequences, each a token byte, literals, and a back-reference to earlier
// output, with no entropy coding. Every sequence is
//
//	token u8 (literal length high nibble, match length-4 low nibble)
//	[ literal length - 15, in 255-valued bytes, when the nibble is 15 ]
//	literals | offset u16 (1..65535) | [ match length - 19, as above ]
//
// and the last sequence stops after its literals. Decoding is a loop of
// copies, with no Huffman tables to rebuild per stream as DEFLATE has, so
// a point read's decode of its block's strings costs little next to the
// rest of the read.
const (
	lzMinMatch  = 4
	lzMaxOffset = 1<<16 - 1
	// The format's end rules, which the encoder keeps so that any LZ4
	// decoder reads its output: the last 5 bytes are literals, and no
	// match starts within the last 12.
	lzLastLiterals = 5
	lzMatchLimit   = 12
	lzHashLog      = 12
)

// lzMaxExpand bounds a stream's expansion: each byte of a length
// extension adds at most 255 bytes of output. A forged raw length past it
// cannot be filled by its stored bytes, so nothing is sized by it.
const lzMaxExpand = 255

// lzEncoder is a greedy matcher over a hash table of 4-byte sequences,
// built once and reused for every stream it encodes.
type lzEncoder struct {
	table [1 << lzHashLog]int32 // hash -> position+1 of its latest occurrence (0: none)
}

func lzHash(v uint32) uint32 { return v * 2654435761 >> (32 - lzHashLog) }

// encode appends src's LZ4 block-format stream to dst.
func (e *lzEncoder) encode(dst, src []byte) []byte {
	clear(e.table[:])
	le := binary.LittleEndian
	anchor := 0 // start of the pending literals
	for s := 0; s < len(src)-lzMatchLimit; {
		v := le.Uint32(src[s:])
		h := lzHash(v)
		cand := int(e.table[h]) - 1
		e.table[h] = int32(s + 1)
		if cand < 0 || s-cand > lzMaxOffset || le.Uint32(src[cand:]) != v {
			s++
			continue
		}
		for cand > 0 && s > anchor && src[cand-1] == src[s-1] {
			cand, s = cand-1, s-1
		}
		n := lzMinMatch
		for s+n < len(src)-lzLastLiterals && src[cand+n] == src[s+n] {
			n++
		}
		dst = lzSequence(dst, src[anchor:s], s-cand, n)
		s += n
		anchor = s
		if s-2 < len(src)-lzMatchLimit {
			e.table[lzHash(le.Uint32(src[s-2:]))] = int32(s - 2 + 1)
		}
	}
	lits := src[anchor:]
	dst = append(dst, byte(min(len(lits), 15))<<4)
	if len(lits) >= 15 {
		dst = lzAppendLen(dst, len(lits)-15)
	}
	return append(dst, lits...)
}

// lzSequence appends one sequence: lits, then a match of n bytes at off.
func lzSequence(dst, lits []byte, off, n int) []byte {
	m := n - lzMinMatch
	dst = append(dst, byte(min(len(lits), 15))<<4|byte(min(m, 15)))
	if len(lits) >= 15 {
		dst = lzAppendLen(dst, len(lits)-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(off), byte(off>>8))
	if m >= 15 {
		dst = lzAppendLen(dst, m-15)
	}
	return dst
}

// lzAppendLen appends a length's extension bytes.
func lzAppendLen(dst []byte, n int) []byte {
	for ; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

// lzDecode decodes src into dst. It succeeds only when the stream fills
// dst exactly and ends exactly at the end of src; every length and offset
// is checked before it is used, so no input makes it read or write
// outside the two slices.
func lzDecode(dst, src []byte) error {
	z := lzStream{dst: dst, src: src}
	// The output never passes len(dst), so this runs to the stream's end.
	if err := z.fill(len(dst) + 1); err != nil {
		return err
	}
	if z.d != len(dst) {
		return fmt.Errorf("lz: stream fills %d of %d bytes", z.d, len(dst))
	}
	return nil
}

// lzStream is a decode of src into dst that can stop after any sequence
// and resume there: a point read decodes a var stream only as far as the
// values it reads.
type lzStream struct {
	dst, src []byte
	d, s     int  // bytes written to dst, bytes read from src
	done     bool // the last sequence is decoded
}

// fill decodes whole sequences until at least want bytes of dst are
// written or the stream has ended, with lzDecode's checks; a caller that
// needs want bytes checks z.d. After an error the stream is spent.
func (z *lzStream) fill(want int) error {
	dst, src, d, s := z.dst, z.src, z.d, z.s
	for d < want && !z.done {
		if s >= len(src) {
			return fmt.Errorf("lz: missing token at %d", s)
		}
		tok := src[s]
		s++
		lit := int(tok >> 4)
		if lit == 15 {
			var ok bool
			if lit, s, ok = lzLen(src, s, lit, len(dst)-d); !ok {
				return fmt.Errorf("lz: literal length at %d overruns", s)
			}
		}
		if lit > len(src)-s || lit > len(dst)-d {
			return fmt.Errorf("lz: %d literals at %d overrun", lit, s)
		}
		d += copy(dst[d:], src[s:s+lit])
		s += lit
		if s == len(src) {
			z.done = true
			break
		}
		if len(src)-s < 2 {
			return fmt.Errorf("lz: truncated offset at %d", s)
		}
		off := int(src[s]) | int(src[s+1])<<8
		s += 2
		if off == 0 || off > d {
			return fmt.Errorf("lz: offset %d at output %d", off, d)
		}
		n := int(tok & 15)
		if n == 15 {
			var ok bool
			if n, s, ok = lzLen(src, s, n, len(dst)-d-lzMinMatch); !ok {
				return fmt.Errorf("lz: match length at %d overruns", s)
			}
		}
		n += lzMinMatch
		if n > len(dst)-d {
			return fmt.Errorf("lz: %d-byte match at output %d overruns %d", n, d, len(dst))
		}
		// A match may overlap its own output (off < n): the bytes from
		// start repeat with period off, so each pass can copy all of them.
		start := d - off
		for end := d + n; d < end; {
			d += copy(dst[d:end], dst[start:d])
		}
	}
	z.d, z.s = d, s
	return nil
}

// need decodes until at least n bytes of dst are written, failing if the
// stream ends first. It inlines to a compare when they already are.
func (z *lzStream) need(n int) error {
	if z.d >= n {
		return nil
	}
	return z.fillTo(n)
}

// fillTo is need's decoding half.
func (z *lzStream) fillTo(n int) error {
	if err := z.fill(n); err != nil {
		return err
	}
	if z.d < n {
		return fmt.Errorf("lz: stream ends at %d of %d bytes", z.d, n)
	}
	return nil
}

// lzLen adds to n the extension bytes at src[s:] of a length whose token
// nibble was 15, failing past max or at the end of src.
func lzLen(src []byte, s, n, max int) (int, int, bool) {
	for s < len(src) {
		b := src[s]
		s++
		if n += int(b); n > max {
			return 0, s, false
		}
		if b != 255 {
			return n, s, true
		}
	}
	return 0, s, false
}
