package sketch

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sqlclean/internal/pattern"
)

// FuzzSketchRestore feeds arbitrary bytes to the snapshot decoder, as a
// daemon reads them from its data directory. Whatever Restore accepts must
// be safe to read, and its re-snapshot must be a fixed point: snapshot →
// JSON → Restore → snapshot gives the same value again.
func FuzzSketchRestore(f *testing.F) {
	// A live bundle, at p=4 so the mutator works on a short register file
	// rather than DefaultPrecision's 16 KiB.
	live := New(Config{})
	live.HLL = NewHLL(4)
	for i := 0; i < 500; i++ {
		u := fmt.Sprintf("user-%d", i%70)
		live.HLL.AddString(u)
		live.SWS.Observe(uint64(i%9), u, uint64(i%13))
	}
	corrupt := NewHLL(4)
	for i := 0; i < 100; i++ {
		corrupt.AddString(fmt.Sprintf("id-%d", i))
	}
	corrupt.regs[0] = 64
	for _, snap := range []*Snapshot{live.Snapshot(), {Version: SnapshotVersion, HLL: corrupt.Snapshot()}} {
		blob, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(topBlockSnapshot))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		sk, err := Restore(&snap)
		if err != nil {
			return
		}
		sk.HLL.Count()
		sk.SWS.Classify(1000, pattern.DefaultSWSOptions())
		first := sk.Snapshot()
		blob, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Snapshot
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		again, err := Restore(&decoded)
		if err != nil {
			t.Fatalf("restore refused its own re-snapshot: %v", err)
		}
		if !reflect.DeepEqual(again.Snapshot(), first) {
			t.Fatalf("re-snapshot is not a fixed point:\n%s", blob)
		}
	})
}
