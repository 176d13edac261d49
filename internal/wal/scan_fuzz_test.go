package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALScan feeds arbitrary bytes to Scan, the one reader of log bytes
// from disk and from the archive. It must never panic; it must stop on a
// record boundary no greater than len(data), where the remaining bytes do
// not decode; and every record it accepts must re-encode to exactly the
// bytes it consumed. The chunked file scanner must stop where Scan does,
// having handed out the same bytes: a log written in place ends in
// reserved zeros, so the file's size is not the log's length.
func FuzzWALScan(f *testing.F) {
	var log []byte
	for _, r := range []Record{
		{Type: RecInsert, GSN: 1, LSN: 1, XID: 7, TableID: 2, RowID: 10, Payload: []byte("row")},
		{Type: RecUpdate, GSN: 3, LSN: 2, XID: 7, TableID: 2, RowID: 10, Payload: []byte{0, 1, 2, 3}},
		{Type: RecCommit, GSN: 4, LSN: 3, XID: 7, RowID: 99},
	} {
		log = encodeRecord(log, &r)
	}
	f.Add(log)              // a valid three-record log
	f.Add(log[:len(log)-5]) // a torn tail
	flipped := append([]byte(nil), log...)
	flipped[4] ^= 0x40 // a flipped CRC byte
	f.Add(flipped)
	long := append([]byte(nil), log...)
	binary.LittleEndian.PutUint32(long[0:], 1<<20) // a length running past the end
	f.Add(long)
	f.Add([]byte{})
	zeros := make([]byte, 3*recordHeaderSize)
	f.Add(append(append([]byte(nil), log...), zeros...))              // reserved space past the records
	f.Add(append(append([]byte(nil), log[:len(log)-5]...), zeros...)) // a torn record, then reserved space
	garbage := append(encodeRecord(nil, &Record{Type: RecCommit, GSN: 9, LSN: 4}), 0xde, 0xad, 0xbe, 0xef, 7, 0, 0, 0, 1)
	f.Add(append(garbage, zeros...)) // a record, non-zero garbage, then zeros
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		next := Scan(data, 0, func(r Record, raw []byte) bool {
			if !bytes.Equal(raw, data[off:off+len(raw)]) {
				t.Fatalf("record at %d: raw bytes are not the input's", off)
			}
			if re := encodeRecord(nil, &r); !bytes.Equal(re, raw) {
				t.Fatalf("record at %d re-encodes to % x, consumed % x", off, re, raw)
			}
			off += len(raw)
			return true
		})
		if next != off || next > len(data) {
			t.Fatalf("Scan stopped at %d, records end at %d, len %d", next, off, len(data))
		}
		if _, _, ok := decodeRecord(data[next:]); ok {
			t.Fatalf("Scan stopped at %d before a decodable record", next)
		}
		var streamed []byte
		end, read, err := new(scanner).scan(bytes.NewReader(data), 0, func(raw []byte) bool {
			streamed = append(streamed, raw...)
			return true
		})
		if err != nil || end != int64(next) || !bytes.Equal(streamed, data[:next]) {
			t.Fatalf("file scan ended at %d (%v) with %d bytes, Scan at %d", end, err, len(streamed), next)
		}
		if read > int64(len(data)) {
			t.Fatalf("file scan read %d bytes of %d", read, len(data))
		}
	})
}
