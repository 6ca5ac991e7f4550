package ftbfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReadRecordKeepsNoDoubledBuffer pins the buffer readRecord returns to
// about the record's size. A slab structure aliases that buffer for its
// whole life, so a buffer grown to twice the record on the read that finds
// EOF would double what every loaded, reloaded or handed-off structure
// keeps live.
func TestReadRecordKeepsNoDoubledBuffer(t *testing.T) {
	check := func(what string, size int, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s, %d bytes: %v", what, size, err)
		}
		if len(data) != size {
			t.Fatalf("%s: read %d bytes, want %d", what, len(data), size)
		}
		if 2*cap(data) >= 3*len(data) {
			t.Fatalf("%s, %d bytes: buffer capacity %d is %.2fx the record", what, size, cap(data), float64(cap(data))/float64(size))
		}
	}
	rec := make([]byte, 64<<10)
	for size := 4 << 10; size <= 64<<10; size += 13 {
		data, err := readRecord(bytes.NewReader(rec[:size]))
		check("bytes.Reader", size, data, err)
	}
	dir := t.TempDir()
	for _, size := range []int{4097, 12000, 40000, 65000} {
		path := filepath.Join(dir, "rec")
		if err := os.WriteFile(path, rec[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readRecord(f)
		f.Close()
		check("file", size, data, err)
	}
}
