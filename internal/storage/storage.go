// Package storage implements PhoebeDB's two on-disk data layers (§5.1):
//
//   - The Data Page File holds cold pages in fixed-size slots addressed by
//     page ID, written when the buffer manager evicts and read back when a
//     cold swip is accessed.
//   - The Data Block File holds frozen data: compressed runs of consecutive
//     leaf pages, appended once when frozen and read (rarely) by analytical
//     scans or when a frozen row is warmed.
//
// The paper's testbed uses NVMe SSDs driven through io_uring; this
// implementation substitutes plain file pread/pwrite, preserving the access
// pattern (random page-granularity I/O on the page file, large sequential
// appends on the block file). All traffic is reported to an
// metrics.IOCounters so the evaluation harness can reproduce the disk
// throughput figures (Exp 3 & 4).
package storage

import (
	"fmt"
	"os"
	"sync"

	"phoebedb/internal/fault"
	"phoebedb/internal/metrics"
)

// PageID addresses one slot in the data page file.
type PageID uint64

// InvalidPageID is the zero page ID; slot 0 is never allocated so that a
// zero swip word can be recognized as empty.
const InvalidPageID PageID = 0

// PageFile is a slotted file of fixed-size page images with a free list.
// Methods are safe for concurrent use; distinct pages may be read and
// written in parallel (the file descriptor is shared, offsets are disjoint).
type PageFile struct {
	f        *os.File
	pageSize int
	io       *metrics.IOCounters

	mu   sync.Mutex
	next PageID
	free []PageID
}

// OpenPageFile creates or opens a page file at path with the given slot
// size. io may be nil.
func OpenPageFile(path string, pageSize int, io *metrics.IOCounters) (*PageFile, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: non-positive page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pf := &PageFile{f: f, pageSize: pageSize, io: io, next: 1}
	if n := (st.Size() + int64(pageSize) - 1) / int64(pageSize); n > 0 {
		pf.next = PageID(n) + 1
	}
	return pf, nil
}

// PageSize returns the slot size in bytes.
func (pf *PageFile) PageSize() int { return pf.pageSize }

// Allocate reserves a page slot, reusing freed slots first.
func (pf *PageFile) Allocate() PageID {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if n := len(pf.free); n > 0 {
		id := pf.free[n-1]
		pf.free = pf.free[:n-1]
		return id
	}
	id := pf.next
	pf.next++
	return id
}

// Free returns a slot to the free list.
func (pf *PageFile) Free(id PageID) {
	if id == InvalidPageID {
		return
	}
	pf.mu.Lock()
	pf.free = append(pf.free, id)
	pf.mu.Unlock()
}

// WritePage stores img (at most PageSize bytes, shorter images are
// zero-padded by the slot layout) into the slot.
func (pf *PageFile) WritePage(id PageID, img []byte) error {
	if id == InvalidPageID {
		return fmt.Errorf("storage: write to invalid page id")
	}
	if len(img) > pf.pageSize {
		return fmt.Errorf("storage: image %d bytes exceeds page size %d", len(img), pf.pageSize)
	}
	if err := fault.Eval(fault.StorageWritePage); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	off := int64(id-1) * int64(pf.pageSize)
	if _, err := pf.f.WriteAt(img, off); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if pf.io != nil {
		pf.io.DataWrite.Add(int64(len(img)))
	}
	return nil
}

// ReadPage returns the slot's stored image (full slot; the page decoder
// reads its own length from the image header).
func (pf *PageFile) ReadPage(id PageID, buf []byte) ([]byte, error) {
	if id == InvalidPageID {
		return nil, fmt.Errorf("storage: read of invalid page id")
	}
	if err := fault.Eval(fault.StorageReadPage); err != nil {
		return nil, fmt.Errorf("storage: read page %d: %w", id, err)
	}
	if cap(buf) < pf.pageSize {
		buf = make([]byte, pf.pageSize)
	}
	buf = buf[:pf.pageSize]
	off := int64(id-1) * int64(pf.pageSize)
	n, err := pf.f.ReadAt(buf, off)
	if err != nil && n < pf.pageSize {
		// Reading the final, partially written slot is legal: zero-fill.
		for i := n; i < pf.pageSize; i++ {
			buf[i] = 0
		}
	}
	if pf.io != nil {
		pf.io.DataRead.Add(int64(pf.pageSize))
	}
	return buf, nil
}

// Sync flushes the file to stable storage.
func (pf *PageFile) Sync() error { return pf.f.Sync() }

// Close closes the underlying file.
func (pf *PageFile) Close() error { return pf.f.Close() }

// --- Block file --------------------------------------------------------------

// BlockRef locates a frozen block in the data block file.
type BlockRef struct {
	Offset int64
	Len    int32
}

// BlockFile is the append-only frozen-data store.
type BlockFile struct {
	f  *os.File
	io *metrics.IOCounters

	mu  sync.Mutex
	end int64
}

// OpenBlockFile creates or opens the block file at path. io may be nil.
func OpenBlockFile(path string, io *metrics.IOCounters) (*BlockFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open block file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &BlockFile{f: f, io: io, end: st.Size()}, nil
}

// AppendBlock writes blk at the end of the file and returns its reference.
func (bf *BlockFile) AppendBlock(blk []byte) (BlockRef, error) {
	if err := fault.Eval(fault.StorageAppendBlock); err != nil {
		return BlockRef{}, fmt.Errorf("storage: append block: %w", err)
	}
	bf.mu.Lock()
	off := bf.end
	bf.end += int64(len(blk))
	bf.mu.Unlock()
	if _, err := bf.f.WriteAt(blk, off); err != nil {
		return BlockRef{}, fmt.Errorf("storage: append block: %w", err)
	}
	if bf.io != nil {
		bf.io.DataWrite.Add(int64(len(blk)))
	}
	return BlockRef{Offset: off, Len: int32(len(blk))}, nil
}

// ReadBlock returns the block's bytes in a fresh buffer.
func (bf *BlockFile) ReadBlock(ref BlockRef) ([]byte, error) {
	return bf.ReadBlockInto(ref, nil)
}

// ReadBlockInto reads the block into buf, grown if it is too small, and
// returns the bytes read: a caller that reads block after block reuses
// one buffer.
func (bf *BlockFile) ReadBlockInto(ref BlockRef, buf []byte) ([]byte, error) {
	if cap(buf) < int(ref.Len) {
		buf = make([]byte, ref.Len)
	}
	buf = buf[:ref.Len]
	if _, err := bf.f.ReadAt(buf, ref.Offset); err != nil {
		return nil, fmt.Errorf("storage: read block at %d: %w", ref.Offset, err)
	}
	if bf.io != nil {
		bf.io.DataRead.Add(int64(ref.Len))
	}
	return buf, nil
}

// Size returns the file's logical end offset.
func (bf *BlockFile) Size() int64 {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	return bf.end
}

// Sync flushes the file to stable storage.
func (bf *BlockFile) Sync() error { return bf.f.Sync() }

// Close closes the underlying file.
func (bf *BlockFile) Close() error { return bf.f.Close() }
