package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sqlclean/internal/logmodel"
)

// TestForgedSectionLengthIsCorrupt forges a section header claiming a
// 4 GiB body in a 40-byte block file: the index read and the on-demand
// section load must refuse it as ErrCorrupt without allocating the claimed
// length.
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

// blockSections is the fixed section order of a block file.
var blockSections = []byte{secMeta, secDict, secTime, secTID, secSeq, secRows, secUsers, secSessions, secParams}

// writeFramedBlock writes a block file whose sections carry the given
// payloads, in blockSections order, each in a valid length + CRC frame.
func writeFramedBlock(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(blockMagic[:])
	for i, p := range payloads {
		if err := writeSection(&buf, blockSections[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// metaPayload encodes a meta section claiming n entries.
func metaPayload(n uint64) []byte {
	p := binary.AppendUvarint(nil, n)
	p = binary.AppendVarint(p, 0)
	p = binary.AppendVarint(p, 0)
	p = binary.AppendUvarint(p, 1)
	return binary.AppendUvarint(p, 1)
}

// dictPayload encodes a dictionary section holding one template.
func dictPayload(skeleton string, slots, count uint64) []byte {
	p := binary.AppendUvarint(nil, 1)
	p = append(p, 0) // flags
	p = appendString(p, skeleton)
	p = binary.AppendUvarint(p, slots)
	p = binary.AppendUvarint(p, 0) // engine fingerprint
	p = binary.AppendUvarint(p, 0) // verdicts
	p = binary.AppendUvarint(p, count)
	p = binary.AppendVarint(p, 0)
	return binary.AppendVarint(p, 0)
}

// TestImpossibleCountsAreCorrupt hand-builds CRC-valid blocks whose counts
// no block of their size can hold: each read must return ErrCorrupt before
// the count sizes an allocation or indexes a column.
func TestImpossibleCountsAreCorrupt(t *testing.T) {
	const huge = 1 << 56
	users := []byte{1, 1, 'u', 0, 0} // one user, then the ids of two entries
	const k = 1000
	zeros := make([]byte, k)
	kUsers := append([]byte{1, 1, 'u'}, zeros...)
	cases := []struct {
		name     string
		payloads [][]byte
	}{
		// 2^56 entries in one-byte time and template-ID sections.
		{"entry count", [][]byte{metaPayload(huge), {0}, {0}, {0}}},
		// An entry count that turns negative as an int.
		{"negative entry count", [][]byte{metaPayload(1 << 63), {0}, {0}, {0}}},
		// 2^56 templates in a dictionary section of ten bytes.
		{"dictionary count", [][]byte{metaPayload(huge), binary.AppendUvarint(nil, huge)}},
		// A slot in an empty skeleton.
		{"slot count", [][]byte{metaPayload(1), dictPayload("", 1, 1), {0}, {0}, {0}, {0}, users[:4], users[:4], {0}}},
		// A template count that turns negative as an int.
		{"negative template count", [][]byte{metaPayload(1), dictPayload("\x1a", 1, 1<<63), {0}, {0}, {0}, {0}, users[:4], users[:4], {1, '7'}}},
		// Two entries of a template that counts one.
		{"template count", [][]byte{metaPayload(2), dictPayload("\x1a", 1, 1), {0, 0}, {0, 0}, {0, 0}, {0, 0}, users, users, {1, '7'}}},
		// A thousand entries of a thousand-slot template: a million
		// parameter values in a params section of one byte.
		{"parameter count", [][]byte{metaPayload(k), dictPayload(strings.Repeat("\x1a", k), k, k), zeros, zeros, zeros, zeros, kUsers, kUsers, {0}}},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), BlockName(1, 1))
		writeFramedBlock(t, path, c.payloads)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			b, err := ReadBlockIndex(path)
			if err != nil {
				return err
			}
			if _, _, err := b.LoadColumns(); err != nil {
				return err
			}
			return b.Scan(func(uint64, logmodel.Entry) error { return nil })
		}()
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: reading allocated %d bytes", c.name, alloc)
		}
	}
}

// FuzzReadBlock wraps fuzzed section payloads in valid frames and reads the
// block every way the store does: the index, the trend columns, and a full
// scan. Each may refuse the block with an error; none may panic.
func FuzzReadBlock(f *testing.F) {
	bb := newBlockBuilder(func(string) Classification {
		return Classification{EngineFP: 42, Verdicts: []string{"DW-Stifle"}}
	})
	for i, e := range genEntries(16, 3) {
		bb.add(e, uint64(i+1))
	}
	seed := filepath.Join(f.TempDir(), BlockName(1, 16))
	if _, err := writeBuiltBlock(seed, bb); err != nil {
		f.Fatal(err)
	}
	built, err := ReadBlockIndex(seed)
	if err == nil {
		err = built.loadSectionsThrough(secParams)
	}
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for _, typ := range blockSections {
		p, err := built.section(typ)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	f.Add(payloads[0], payloads[1], payloads[2], payloads[3], payloads[4], payloads[5], payloads[6], payloads[7], payloads[8])
	path := filepath.Join(f.TempDir(), BlockName(1, 1))
	f.Fuzz(func(t *testing.T, meta, dict, times, tids, seqs, rows, users, sessions, params []byte) {
		writeFramedBlock(t, path, [][]byte{meta, dict, times, tids, seqs, rows, users, sessions, params})
		if b, err := ReadBlockIndex(path); err == nil {
			_, _, _ = b.LoadColumns()
			_ = b.Scan(func(uint64, logmodel.Entry) error { return nil })
		}
	})
}
