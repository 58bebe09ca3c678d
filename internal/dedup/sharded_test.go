package dedup

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/workload"
)

// forceSharded lowers the serial-fallback floor so small test logs still
// exercise the sharded path, restoring it on cleanup.
func forceSharded(t *testing.T) {
	t.Helper()
	old := shardedMinInput
	shardedMinInput = 0
	t.Cleanup(func() { shardedMinInput = old })
}

func logsEqual(t *testing.T, a, b logmodel.Log) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRemoveShardedMatchesRemove pins the headline equivalence on the real
// synthetic workload across worker counts and thresholds, including the
// unrestricted window.
func TestRemoveShardedMatchesRemove(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.4))
	log.SortStable()
	for _, threshold := range []time.Duration{time.Second, 10 * time.Second, Unrestricted} {
		serial, kept, res := RemoveIndexed(log, threshold)
		for _, w := range []int{2, 4, 8} {
			got, gotKept, gotRes := RemoveShardedIndexed(log, threshold, w)
			if gotRes != res {
				t.Fatalf("threshold %v workers %d: result %+v vs %+v", threshold, w, gotRes, res)
			}
			logsEqual(t, got, serial)
			if len(gotKept) != len(kept) {
				t.Fatalf("kept length: %d vs %d", len(gotKept), len(kept))
			}
			for i := range kept {
				if gotKept[i] != kept[i] {
					t.Fatalf("kept[%d]: %d vs %d", i, gotKept[i], kept[i])
				}
			}
		}
	}
}

// TestRemoveThresholdBoundary pins the window edge: a repeat exactly at the
// threshold is a duplicate (the definition is ≤), one nanosecond past it is
// not — for both the serial and the sharded scan.
func TestRemoveThresholdBoundary(t *testing.T) {
	forceSharded(t)
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	const threshold = time.Second
	// The reference point slides on every occurrence, kept or dropped, so
	// each diff below is against the immediately preceding same-key entry.
	log := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT 1"},
		{Seq: 1, Time: base.Add(threshold), User: "u", Statement: "SELECT 1"},                       // diff exactly threshold: duplicate
		{Seq: 2, Time: base.Add(2*threshold + time.Nanosecond), User: "u", Statement: "SELECT 1"},   // diff threshold+1ns: kept
		{Seq: 3, Time: base.Add(3*threshold + time.Nanosecond), User: "u", Statement: "SELECT 1"},   // diff exactly threshold again: duplicate
		{Seq: 4, Time: base.Add(3*threshold + 2*time.Nanosecond), User: "v", Statement: "SELECT 1"}, // other user: never a duplicate
		{Seq: 5, Time: base.Add(4*threshold + 3*time.Nanosecond), User: "u", Statement: "SELECT 1"}, // diff threshold+2ns: kept
	}
	wantKept := []int64{0, 2, 4, 5}

	check := func(name string, out logmodel.Log, res Result) {
		t.Helper()
		if res.Removed != 2 {
			t.Fatalf("%s: removed %d, want 2", name, res.Removed)
		}
		if len(out) != len(wantKept) {
			t.Fatalf("%s: kept %d entries, want %d", name, len(out), len(wantKept))
		}
		for i, e := range out {
			if e.Seq != wantKept[i] {
				t.Fatalf("%s: kept[%d] = seq %d, want %d", name, i, e.Seq, wantKept[i])
			}
		}
	}
	out, res := Remove(log, threshold)
	check("serial", out, res)
	out, res = RemoveSharded(log, threshold, 4)
	check("sharded", out, res)
}

// TestRemoveShardedProperty is the randomized equivalence property: over
// 1000 seeded random logs — few users and statements, clustered timestamps,
// so duplicate chains and window edges occur constantly — the sharded scan
// must agree with the serial one on every output, index and count.
func TestRemoveShardedProperty(t *testing.T) {
	forceSharded(t)
	shardedProperty(t)
}

// TestRemoveShardedPropertyOneHash reruns the property with every key on
// one hash, so every key after a window's first takes the exact map that
// colliding keys slide in.
func TestRemoveShardedPropertyOneHash(t *testing.T) {
	forceSharded(t)
	forceOneHash(t)
	shardedProperty(t)
}

// TestCollidingKeysAtOneInstant pins the collision path's exact check: two
// different keys on one hash at one timestamp are both first occurrences,
// and each one's repeat is compared against its own previous entry.
func TestCollidingKeysAtOneInstant(t *testing.T) {
	forceSharded(t)
	forceOneHash(t)
	log := logmodel.Log{
		mk("u", "SELECT 1", 0),
		mk("v", "SELECT 1", 0),                    // other user, same hash and time: kept
		mk("u", "SELECT 2", 0),                    // other statement, same hash and time: kept
		mk("v", "SELECT 1", 500*time.Millisecond), // repeat of entry 1: duplicate
		mk("u", "SELECT 2", 3*time.Second),        // repeat of entry 2, outside the window: kept
		mk("u", "SELECT 1", 3*time.Second),        // repeat of entry 0, outside the window: kept
	}
	for i := range log {
		log[i].Seq = int64(i)
	}
	want := []int{0, 1, 2, 4, 5}
	for _, w := range []int{1, 4} {
		out, kept, res := RemoveShardedIndexed(log, time.Second, w)
		if res.Removed != 1 || !slices.Equal(kept, want) {
			t.Fatalf("workers %d: kept %v (removed %d), want %v", w, kept, res.Removed, want)
		}
		for i, idx := range kept {
			if out[i] != log[idx] {
				t.Fatalf("workers %d: out[%d] = %+v, want input %d", w, i, out[i], idx)
			}
		}
	}
}

// forceOneHash gives every key the same hash, restoring the hash on
// cleanup.
func forceOneHash(t *testing.T) {
	t.Helper()
	old := keyHash
	keyHash = func(*maphash.Hash, string, string) uint64 { return 0 }
	t.Cleanup(func() { keyHash = old })
}

// shardedProperty checks RemoveShardedIndexed against the serial
// RemoveIndexed on 1000 seeded random logs.
func shardedProperty(t *testing.T) {
	t.Helper()
	thresholds := []time.Duration{time.Second, 5 * time.Second, Unrestricted}
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		log := make(logmodel.Log, n)
		tm := base
		for i := range log {
			// Steps cluster around the 1 s threshold, hitting exactly-at-
			// window spacings (0, 500ms, 1s, ...) often.
			tm = tm.Add(time.Duration(rng.Intn(5)) * 500 * time.Millisecond)
			log[i] = logmodel.Entry{
				Seq:       int64(i),
				Time:      tm,
				User:      fmt.Sprintf("u%d", rng.Intn(4)),
				Statement: fmt.Sprintf("SELECT %d", rng.Intn(6)),
			}
		}
		threshold := thresholds[rng.Intn(len(thresholds))]
		workers := 2 + rng.Intn(7)
		serial, kept, res := RemoveIndexed(log, threshold)
		got, gotKept, gotRes := RemoveShardedIndexed(log, threshold, workers)
		if gotRes != res {
			t.Fatalf("seed %d: result %+v vs %+v", seed, gotRes, res)
		}
		if len(got) != len(serial) {
			t.Fatalf("seed %d: length %d vs %d", seed, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] || gotKept[i] != kept[i] {
				t.Fatalf("seed %d: entry %d differs: %+v/%d vs %+v/%d",
					seed, i, got[i], gotKept[i], serial[i], kept[i])
			}
		}
	}
}
