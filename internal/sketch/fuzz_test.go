package sketch

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// legacyBundle is a version-1 bundle in an older encoding: beside the HLL it
// carries the state of a top-k template tracker in a "top" block and the
// per-template SWS evidence, split into a base and event-time windows, in an
// "sws" block. Restore reads its HLL and ignores both blocks.
const legacyBundle = `{
  "version": 1,
  "hll": {"precision": 4, "registers": "AQIAAwEAAgEEAAECAQMAAQ=="},
  "top": {"capacity": 128, "evictions": 0, "observed": 9, "entries": [
    {"fingerprint": 7, "skeleton": "SELECT a FROM t WHERE b = ?", "count": 6, "err": 0},
    {"fingerprint": 9, "skeleton": "SELECT c FROM u", "count": 3, "err": 0}
  ]},
  "sws": {
    "window_ns": 3600000000000, "max_windows": 8, "user_cap": 32, "flushes": 2,
    "base": [{"fingerprint": 7, "freq": 4, "users": ["alice"], "wcs": [1, 2, 3]}],
    "windows": [
      {"start_ns": 1054425600000000000, "evidence": [
        {"fingerprint": 7, "freq": 2, "users": ["alice"], "wcs": [3, 4]},
        {"fingerprint": 9, "freq": 3, "users": ["bob", "carol"], "wcs": [5]}
      ]}
    ]
  }
}`

// FuzzSketchRestore feeds arbitrary bytes to the snapshot decoder, as a
// daemon reads them from its data directory. Whatever Restore accepts must
// be safe to read and restore the registers it was given, and its
// re-snapshot must be a fixed point: snapshot → JSON → Restore → snapshot
// gives the same value again.
func FuzzSketchRestore(f *testing.F) {
	snapshot := func(h *HLL) *Snapshot { return &Snapshot{Version: SnapshotVersion, HLL: h.Snapshot()} }
	// A live counter, at p=4 so the mutator works on a short register file
	// rather than DefaultPrecision's 16 KiB.
	live := NewHLL(4)
	for i := 0; i < 500; i++ {
		live.AddString(fmt.Sprintf("user-%d", i%70))
	}
	corrupt := NewHLL(4)
	for i := 0; i < 100; i++ {
		corrupt.AddString(fmt.Sprintf("id-%d", i))
	}
	corrupt.regs[0] = 64
	for _, h := range []*HLL{live, corrupt} {
		blob, err := json.Marshal(snapshot(h))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(legacyBundle))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		h, err := Restore(&snap)
		if err != nil {
			return
		}
		h.Count()
		first := snapshot(h)
		if !reflect.DeepEqual(first.HLL, snap.HLL) {
			t.Fatalf("restored registers %+v, decoded %+v", first.HLL, snap.HLL)
		}
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
		if !reflect.DeepEqual(snapshot(again), first) {
			t.Fatalf("re-snapshot is not a fixed point:\n%s", blob)
		}
	})
}
