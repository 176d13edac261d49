package core

import (
	"bytes"
	"os"
	"testing"

	"phoebedb/internal/durable"
)

// TestCheckpointGolden pins the PCK1 format: testdata/checkpoint.golden is
// a two-table image written by the commit before the codec moved onto
// internal/durable. Header and table section must decode and re-encode to
// the same bytes.
func TestCheckpointGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint.golden")
	if err != nil {
		t.Fatal(err)
	}
	hdr, r, err := ReadCheckpointHeader(golden)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.GSN == 0 || hdr.Clock == 0 || hdr.ColdEpoch != 1 || hdr.ColdCRC == 0 {
		t.Fatalf("header = %+v", hdr)
	}
	var tables []checkpointTable
	for i, n := 0, r.Count(checkpointTableWire); i < n; i++ {
		tables = append(tables, readCheckpointTable(r))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].name != "kv" || tables[1].name != "tags" || len(tables[0].images) == 0 {
		t.Fatalf("tables = %+v", tables)
	}
	re := durable.Encode(checkpointMagic, checkpointVersion, func(w *durable.Writer) {
		hdr.write(w)
		w.U32(uint32(len(tables)))
		for _, ct := range tables {
			writeCheckpointTable(w, ct)
		}
	})
	if !bytes.Equal(re, golden) {
		t.Fatalf("re-encoded image (%d bytes) differs from the golden (%d bytes)", len(re), len(golden))
	}
}
