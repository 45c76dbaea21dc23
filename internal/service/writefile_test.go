package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileAtomic: the helper creates and then replaces a file, and
// leaves no temp file behind when it succeeds or when the rename fails.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	for _, data := range [][]byte{[]byte("first version"), []byte("second")} {
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("file holds %q (%v), want %q", got, err, data)
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Fatalf("directory holds %v after a write", names)
		}
	}

	// A file cannot be renamed over a directory: the write fails after the
	// temp file was written and synced.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(sub, []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("directory holds %v after a failed write", names)
	}
}
