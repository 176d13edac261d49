package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"phoebedb/internal/durable"
)

// TestCheckpointGolden pins the PCK1 format on two kv+tags images:
// testdata/checkpoint.golden is version 2, written by the commit before
// the codec moved onto internal/durable, which must still decode;
// testdata/checkpoint_v3.golden is version 3, whose table records carry
// each table's and index's catalog record, which must decode and re-encode
// to the same bytes.
func TestCheckpointGolden(t *testing.T) {
	for _, version := range []uint32{2, 3} {
		name := "checkpoint.golden"
		if version == 3 {
			name = "checkpoint_v3.golden"
		}
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		hdr, r, err := ReadCheckpointHeader(golden)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Version != version || hdr.GSN == 0 || hdr.Clock == 0 || hdr.ColdEpoch != 1 || hdr.ColdCRC == 0 {
			t.Fatalf("%s: header = %+v", name, hdr)
		}
		var tables []checkpointTable
		for i, n := 0, r.Count(checkpointTableWire); i < n; i++ {
			tables = append(tables, readCheckpointTable(r, hdr.Version))
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if len(tables) != 2 || tables[0].name != "kv" || tables[1].name != "tags" || len(tables[0].images) == 0 {
			t.Fatalf("%s: tables = %+v", name, tables)
		}
		if version == 2 {
			continue
		}
		var catalog []string
		for _, ct := range tables {
			for _, raw := range ct.catalog {
				c, err := decodeCatalog(raw)
				if err != nil {
					t.Fatal(err)
				}
				catalog = append(catalog, c.String())
			}
		}
		if want := []string{
			`table "kv" id 1 (k INT64, v INT64)`,
			`index "kv_k" on table id 1 (columns [0], unique true)`,
			`table "tags" id 2 (id INT64, name STRING)`,
			`index "tags_name" on table id 2 (columns [1], unique false)`,
		}; !slices.Equal(catalog, want) {
			t.Fatalf("%s: catalog = %q", name, catalog)
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
}
