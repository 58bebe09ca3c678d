package sketch

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestHLLErrorBound is the acceptance bound: at 100k distinct identities the
// default-precision estimate must be within ±2 % of the exact count. The
// hash is deterministic, so this is a fixed property of the implementation,
// not a flaky statistical draw.
func TestHLLErrorBound(t *testing.T) {
	const n = 100_000
	h := NewHLL(0)
	for i := 0; i < n; i++ {
		h.AddString(fmt.Sprintf("user-%d", i))
	}
	got := h.Estimate()
	relErr := math.Abs(got-n) / n
	if relErr > 0.02 {
		t.Fatalf("estimate %.0f for %d identities: relative error %.4f > 0.02", got, n, relErr)
	}
	t.Logf("estimate %.0f for %d identities (relative error %.4f)", got, n, relErr)
}

// TestHLLErrorAcrossScales keeps the estimator honest through the
// linear-counting handover and up to 1M.
func TestHLLErrorAcrossScales(t *testing.T) {
	for _, n := range []int{10, 100, 1_000, 10_000, 1_000_000} {
		h := NewHLL(0)
		for i := 0; i < n; i++ {
			h.AddString(fmt.Sprintf("identity/%d", i))
		}
		got := h.Estimate()
		relErr := math.Abs(got-float64(n)) / float64(n)
		// Small cardinalities ride linear counting (near-exact); the large
		// end gets the same 2 % budget as the acceptance bound.
		bound := 0.02
		if relErr > bound {
			t.Errorf("n=%d: estimate %.1f, relative error %.4f > %.2f", n, got, relErr, bound)
		}
	}
}

// TestHLLIdempotentAndDuplicates pins that re-adding identities never moves
// the registers — the property that makes journal replays harmless.
func TestHLLIdempotentAndDuplicates(t *testing.T) {
	a, b := NewHLL(12), NewHLL(12)
	for i := 0; i < 5_000; i++ {
		s := fmt.Sprintf("u%d", i%500) // heavy duplication
		a.AddString(s)
	}
	for i := 0; i < 500; i++ {
		b.AddString(fmt.Sprintf("u%d", i))
	}
	if !reflect.DeepEqual(a.regs, b.regs) {
		t.Fatal("duplicated adds produced different registers than the distinct set")
	}
}

// TestHLLMergeEqualsUnion: merging shard-partitioned counters must equal one
// counter that saw everything, register for register.
func TestHLLMergeEqualsUnion(t *testing.T) {
	want := NewHLL(14)
	parts := []*HLL{NewHLL(14), NewHLL(14), NewHLL(14), NewHLL(14)}
	for i := 0; i < 20_000; i++ {
		s := fmt.Sprintf("user-%d", i)
		want.AddString(s)
		parts[i%len(parts)].AddString(s)
	}
	merged := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged.regs, want.regs) {
		t.Fatal("merged registers differ from the union counter")
	}
	if err := merged.Merge(NewHLL(10)); err == nil {
		t.Error("Merge accepted a precision mismatch")
	}
}

// TestHLLSnapshotRoundTrip: snapshot → JSON → restore → re-snapshot must be
// the identity, and restore must reject corrupt register files.
func TestHLLSnapshotRoundTrip(t *testing.T) {
	h := NewHLL(11)
	for i := 0; i < 10_000; i++ {
		h.AddString(fmt.Sprintf("id-%d", i))
	}
	blob, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap HLLSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := restoreHLL(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatal("restored HLL differs")
	}
	if !reflect.DeepEqual(got.Snapshot(), h.Snapshot()) {
		t.Fatal("re-snapshot differs")
	}
	if _, err := restoreHLL(HLLSnapshot{Precision: 11, Registers: make([]byte, 7)}); err == nil {
		t.Error("restore accepted a truncated register file")
	}
	if _, err := restoreHLL(HLLSnapshot{Precision: 99}); err == nil {
		t.Error("restore accepted an out-of-range precision")
	}
	for _, v := range []int{0, SnapshotVersion + 1} {
		if _, err := Restore(&Snapshot{Version: v, HLL: h.Snapshot()}); err == nil {
			t.Errorf("Restore accepted snapshot version %d", v)
		}
	}

	// AddHash never writes a rank above 65−p, so a register holding one is
	// corrupt. Unchecked, rank 64 in a full p=4 counter made Count() 0.
	full := NewHLL(4)
	for i := 0; i < 100; i++ {
		full.AddString(fmt.Sprintf("id-%d", i))
	}
	if full.Occupied() != full.Registers() {
		t.Fatalf("p=4 counter occupies %d of %d registers", full.Occupied(), full.Registers())
	}
	for _, c := range []*HLL{h, full} {
		snap := c.Snapshot()
		maxRank := byte(65 - c.Precision())
		snap.Registers[0] = maxRank
		if got, err := restoreHLL(snap); err != nil {
			t.Errorf("p=%d: restore refused rank %d: %v", c.Precision(), maxRank, err)
		} else if got.Count() <= 0 {
			t.Errorf("p=%d: rank %d restored with count %d", c.Precision(), maxRank, got.Count())
		}
		for _, r := range []byte{maxRank + 1, 64} {
			snap.Registers[0] = r
			if _, err := restoreHLL(snap); err == nil {
				t.Errorf("p=%d: restore accepted rank %d", c.Precision(), r)
			}
		}
	}
}

// TestHLLOccupied pins the occupancy gauge semantics.
func TestHLLOccupied(t *testing.T) {
	h := NewHLL(8)
	if h.Occupied() != 0 {
		t.Fatalf("fresh counter occupancy = %d", h.Occupied())
	}
	h.AddString("alice")
	if h.Occupied() != 1 {
		t.Fatalf("one identity occupancy = %d, want 1", h.Occupied())
	}
	if h.Registers() != 256 {
		t.Fatalf("Registers() = %d, want 256", h.Registers())
	}
}
