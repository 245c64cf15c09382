package cli

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicFailureKeepsPrevious: a write that fails midway — the
// crash a direct os.WriteFile onto the target would turn into a torn
// checkpoint — must leave the previous file byte-identical and no temporary
// file behind; a later successful write replaces it whole.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	old := []byte(`{"version":1,"shards":["previous good checkpoint"]}`)
	if err := WriteFileAtomic(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	next := bytes.Repeat([]byte("n"), 4096)
	injected := errors.New("injected: disk full")
	torn := func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, injected
	}
	if err := writeFileAtomic(path, next, 0o644, torn); !errors.Is(err, injected) {
		t.Fatalf("torn write returned %v, want the injected error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("after a failed write the file holds %d bytes %.40q, want the previous %d bytes", len(got), got, len(old))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the target", len(entries))
	}

	if err := WriteFileAtomic(path, next, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, next) {
		t.Fatalf("successful write left %d bytes, want %d", len(got), len(next))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode after write %v, want 0644", fi.Mode().Perm())
	}
}
