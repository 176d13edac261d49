package backup

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzManifest feeds arbitrary bytes to the archive manifest codec.
// DecodeManifest must never panic, and — because the encoding is
// canonical (fixed little-endian frames, bounded counts, a CRC trailer,
// trailing bytes rejected) — any input it accepts must re-encode to
// exactly the same bytes.
func FuzzManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeManifest(&Manifest{}))
	f.Add(EncodeManifest(&Manifest{
		ContinuousFrom: 7,
		SealGSN:        99,
		Epoch:          2,
		NextBase:       1,
		SrcOff:         []uint64{1024},
		Segments: []Segment{
			{Epoch: 0, Sealed: true, Length: 4096, CRC: 0xDEADBEEF, FirstGSN: 1, LastGSN: 99},
			{Epoch: 1, Sealed: true},
			{Epoch: 2, Length: 128, CRC: 0x1234, FirstGSN: 100, LastGSN: 117},
		},
	}))
	whole := EncodeManifest(&Manifest{SrcOff: []uint64{5}})
	f.Add(whole[:len(whole)-1]) // truncated trailer
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := EncodeManifest(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical manifest: % x re-encodes to % x", data, re)
		}
	})
}

// FuzzLabel does the same for the backup_label codec.
func FuzzLabel(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeLabel(&Label{}))
	f.Add(EncodeLabel(&Label{
		CheckpointGSN: 41,
		HorizonGSN:    77,
		Files: []LabelFile{
			{Name: "checkpoint.db", Size: 8192, CRC: 0xABCD},
			{Name: "data.blocks", Size: 0, CRC: 0},
		},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLabel(data)
		if err != nil {
			return
		}
		re := EncodeLabel(l)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical label: % x re-encodes to % x", data, re)
		}
	})
}

// A manifest of the per-group format — a second offset, or a segment of
// group 1, as the stored seed_two_groups corpus entry holds — is refused.
func TestPerGroupManifestRefused(t *testing.T) {
	corpus, err := os.ReadFile("testdata/fuzz/FuzzManifest/seed_two_groups")
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimSpace(string(corpus)), ")")
	lit = lit[strings.Index(lit, "[]byte(")+len("[]byte("):]
	twoGroups, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"seed_two_groups": []byte(twoGroups),
		"two offsets":     EncodeManifest(&Manifest{SrcOff: []uint64{1024, 0}}),
	} {
		if _, err := DecodeManifest(data); !errors.Is(err, errPerGroup) {
			t.Errorf("%s: err = %v, want the per-group refusal", name, err)
		}
	}
}
