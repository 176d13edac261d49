package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phoebedb/internal/fault"
)

// recFS runs every operation against the real file system, records it,
// and fails the one named by failAt.
type recFS struct {
	ops    []string
	failAt string
}

var errInjected = errors.New("injected")

func (r *recFS) step(op string) error {
	// Consecutive writes are one step: how the buffer splits them is not
	// part of the protocol.
	if n := len(r.ops); op != "write" || n == 0 || r.ops[n-1] != "write" {
		r.ops = append(r.ops, op)
	}
	if op == r.failAt {
		return errInjected
	}
	return nil
}

type recFile struct {
	fs   *recFS
	f    *os.File
	kind string // "file" or "dir"
}

func (f recFile) Write(b []byte) (int, error) {
	if err := f.fs.step("write"); err != nil {
		return 0, err
	}
	return f.f.Write(b)
}

func (f recFile) Sync() error {
	if err := f.fs.step("fsync(" + f.kind + ")"); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f recFile) Close() error {
	if f.kind == "dir" {
		return f.f.Close()
	}
	if err := f.fs.step("close"); err != nil {
		f.f.Close()
		return err
	}
	return f.f.Close()
}

func (r *recFS) create(path string) (file, error) {
	op := "create"
	if strings.HasSuffix(path, ".tmp") {
		op = "create-tmp"
	}
	if err := r.step(op); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	return recFile{r, f, "file"}, err
}

func (r *recFS) openDir(path string) (file, error) {
	f, err := os.Open(path)
	return recFile{r, f, "dir"}, err
}

func (r *recFS) rename(from, to string) error {
	if err := r.step("rename"); err != nil {
		return err
	}
	return os.Rename(from, to)
}

func withFS(t *testing.T, failAt string) *recFS {
	t.Helper()
	r := &recFS{failAt: failAt}
	real := fsys
	fsys.create, fsys.openDir, fsys.rename = r.create, r.openDir, r.rename
	t.Cleanup(func() { fsys = real })
	return r
}

var replaceOrder = []string{"create-tmp", "write", "fsync(file)", "close", "rename", "fsync(dir)"}

// TestReplaceFileOrder pins the replace protocol: the rename happens only
// after the new content is durable in the temp file, and ReplaceFile
// returns only after the directory holding the renamed entry is fsynced.
func TestReplaceFileOrder(t *testing.T) {
	r := withFS(t, "")
	path := filepath.Join(t.TempDir(), "MANIFEST")
	// More than the Writer's buffer, so writes happen before Flush too.
	big := bytes.Repeat([]byte("x"), 3<<20)
	n, err := ReplaceFile(path, "", func(w *Writer) error {
		w.Header(0x50424D31, 1)
		w.Write(big)
		w.Trailer()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.ops, " "); got != strings.Join(replaceOrder, " ") {
		t.Fatalf("operation order = %s", got)
	}
	data, err := os.ReadFile(path)
	if err != nil || int64(len(data)) != n || n != int64(len(big))+12 {
		t.Fatalf("file has %d bytes, ReplaceFile reported %d (%v)", len(data), n, err)
	}
	if _, err := Open(data, "test", 0x50424D31, 1); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceFileFailureAtEachStep injects an error at every step (and in
// the caller's stream, and at the caller's failpoint): the destination
// keeps its old bytes, no temp file is left behind, and the error comes
// back — including the directory fsync's, by which point the new content
// is in place but not yet known durable.
func TestReplaceFileFailureAtEachStep(t *testing.T) {
	write := func(w *Writer) error { _, err := w.Write([]byte("new")); return err }
	check := func(t *testing.T, path string, err, want error, content string) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
		if got, rerr := os.ReadFile(path); rerr != nil || string(got) != content {
			t.Fatalf("destination = %q (%v), want %q", got, rerr, content)
		}
		if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
			t.Fatalf("temp file left behind (%v)", serr)
		}
	}
	for _, step := range replaceOrder {
		t.Run(step, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			withFS(t, step)
			_, err := ReplaceFile(path, "", write)
			want := "old"
			if step == "fsync(dir)" {
				want = "new"
			}
			check(t, path, err, errInjected, want)
		})
	}
	t.Run("stream", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		os.WriteFile(path, []byte("old"), 0o644)
		boom := fmt.Errorf("export failed")
		_, err := ReplaceFile(path, "", func(w *Writer) error { w.U32(7); return boom })
		check(t, path, err, boom, "old")
	})
	t.Run("failpoint", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		os.WriteFile(path, []byte("old"), 0o644)
		if err := fault.Enable(fault.FrozenManifestSwap, "error"); err != nil {
			t.Fatal(err)
		}
		defer fault.Reset()
		r := withFS(t, "")
		_, err := ReplaceFile(path, fault.FrozenManifestSwap, write)
		check(t, path, err, fault.ErrInjected, "old")
		// The site sits between "temp file durable and closed" and the rename.
		if got := strings.Join(r.ops, " "); got != "create-tmp write fsync(file) close" {
			t.Fatalf("operations before the failpoint = %s", got)
		}
	})
}

// TestWriteFileSyncsFileAndDirectory: the non-atomic write still makes
// both the bytes and the directory entry durable, and reports a failure
// of either.
func TestWriteFileSyncsFileAndDirectory(t *testing.T) {
	r := withFS(t, "")
	path := filepath.Join(t.TempDir(), "wal-0000.log")
	if err := WriteFile(path, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.ops, " "); got != "create write fsync(file) close fsync(dir)" {
		t.Fatalf("operation order = %s", got)
	}
	for _, step := range []string{"create", "write", "fsync(file)", "close", "fsync(dir)"} {
		withFS(t, step)
		if err := WriteFile(path, []byte("bytes")); !errors.Is(err, errInjected) {
			t.Fatalf("failure at %s: err = %v", step, err)
		}
	}
}

// TestFrameRoundTripAndRejections covers the codec's own rules: sticky
// short reads, Count bounded by the bytes remaining, Bool strict, Done
// rejecting trailing bytes, and Open checking trailer, magic and version.
func TestFrameRoundTripAndRejections(t *testing.T) {
	const magic, version = 0x54455354, 3
	enc := Encode(magic, version, func(w *Writer) {
		w.U8(9)
		w.Bool(true)
		w.U32(2)
		w.U64(1 << 40)
		w.U64(2)
		w.Bytes([]byte("name"))
	})
	r, err := Open(enc, "test", magic, version)
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 9 || !r.Bool() {
		t.Fatal("u8/bool")
	}
	if n := r.Count(8); n != 2 || r.U64() != 1<<40 || r.U64() != 2 {
		t.Fatal("count/u64")
	}
	if string(r.Bytes()) != "name" || r.Done() != nil {
		t.Fatalf("bytes/done: %v", r.Done())
	}

	if _, err := Open(enc[:len(enc)-1], "test", magic, version); err == nil {
		t.Fatal("truncated trailer accepted")
	}
	if _, err := Open(enc, "test", magic+1, version); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := Open(enc, "test", magic, version+1); err == nil {
		t.Fatal("wrong version accepted")
	}
	flipped := append([]byte(nil), enc...)
	flipped[9] ^= 1
	if _, err := Open(flipped, "test", magic, version); err == nil {
		t.Fatal("flipped bit accepted")
	}

	r, _ = Open(enc, "test", magic, version)
	r.U8()
	if r.Done() == nil {
		t.Fatal("trailing bytes accepted")
	}
	r, _ = Open(Encode(magic, version, func(w *Writer) { w.U32(1 << 30) }), "test", magic, version)
	if r.Count(8) != 0 || r.Err() == nil {
		t.Fatal("count beyond the remaining bytes accepted")
	}
	r, _ = Open(Encode(magic, version, func(w *Writer) { w.U8(2) }), "test", magic, version)
	if r.Bool(); r.Err() == nil {
		t.Fatal("bool 2 accepted")
	}
	r, _ = Open(Encode(magic, version, func(w *Writer) { w.U32(5) }), "test", magic, version)
	if r.U64(); r.Err() == nil || r.U32() != 0 || r.Done() == nil {
		t.Fatal("short read did not stick")
	}
}
