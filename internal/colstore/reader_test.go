package colstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestForgedSectionLengthIsCorrupt forges a section header claiming a
// 4 GiB body in a 40-byte block file: both streaming readers must refuse it
// as ErrCorrupt without allocating the claimed length.
func TestForgedSectionLengthIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forged.blk")
	data := append([]byte{}, blockMagic[:]...)
	data = binary.LittleEndian.AppendUint32(data, 0xFFFFFFFF) // length
	data = binary.LittleEndian.AppendUint32(data, 0)          // CRC
	data = append(data, make([]byte, 24)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reads := map[string]func() error{
		"ReadBlockIndex": func() error { _, err := ReadBlockIndex(path); return err },
		"loadSectionsThrough": func() error {
			b := &Block{Meta: BlockMeta{Path: path}, secs: map[byte]rawSection{}}
			return b.loadSectionsThrough(secTime)
		},
	}
	for name, read := range reads {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := read()
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s allocated %d bytes for a 40-byte file", name, alloc)
		}
	}
}
