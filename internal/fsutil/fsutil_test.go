package fsutil

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tmpFiles lists the .tmp files left in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, data := range [][]byte{[]byte(`{"lsn":1}`), []byte(`{"lsn":22}`), {}} {
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q, wrote %q", got, data)
		}
		if left := tmpFiles(t, dir); len(left) != 0 {
			t.Fatalf("tmp files left after a successful write: %v", left)
		}
	}
}

func TestWriteFileAtomicFailureLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("data")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Fatalf("tmp files left after a failed write: %v", left)
	}
	if fi, err := os.Stat(target); err != nil || !fi.IsDir() {
		t.Fatalf("failed write disturbed the target: %v, %v", fi, err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}
