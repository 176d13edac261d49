package frozen

import (
	"bytes"
	"os"
	"testing"
)

// TestManifestGolden pins the PCM1 format: testdata/cold_manifest.golden
// was written by the encoder of the commit before the codec moved onto
// internal/durable (two tables; a levelled segment with tombstones, a flat
// one, a table with none). It must decode and re-encode to the same bytes —
// the round-trip fuzzer cannot see a drift that encoder and decoder share.
func TestManifestGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/cold_manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(golden)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || len(m.Tables) != 2 || len(m.Tables[0].Segments) != 2 ||
		len(m.Tables[0].Segments[0].Deleted) != 2 || !m.Tables[0].Segments[1].Flat {
		t.Fatalf("decoded %+v", m)
	}
	if re := EncodeManifest(m); !bytes.Equal(re, golden) {
		t.Fatalf("re-encoded manifest differs from the golden:\n% x\n% x", re, golden)
	}
}
