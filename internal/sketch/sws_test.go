package sketch

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sqlclean/internal/pattern"
)

// TestEvidenceUserCapExactness is the core cap argument: for any threshold
// below the cap, classification by |Users| equals classification by the true
// popularity, under any split/merge order.
func TestEvidenceUserCapExactness(t *testing.T) {
	const userCap = 8
	users := make([]string, 40)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", (i*17)%40) // shuffled-ish, with repeats
	}
	for truePop := 1; truePop <= 20; truePop++ {
		// One evidence fed directly, and two fed disjoint halves then merged.
		whole := newEvidence()
		a, b := newEvidence(), newEvidence()
		seen := map[string]bool{}
		i := 0
		for len(seen) < truePop {
			u := fmt.Sprintf("user-%02d", i)
			i++
			if seen[u] {
				continue
			}
			seen[u] = true
			whole.observe(u, 1, userCap)
			if len(seen)%2 == 0 {
				a.observe(u, 1, userCap)
			} else {
				b.observe(u, 1, userCap)
			}
		}
		a.merge(b, userCap)
		wantLen := truePop
		if wantLen > userCap {
			wantLen = userCap
		}
		if len(whole.Users) != wantLen || len(a.Users) != wantLen {
			t.Fatalf("pop=%d: |whole|=%d |merged|=%d, want %d", truePop, len(whole.Users), len(a.Users), wantLen)
		}
		if !reflect.DeepEqual(whole.Users, a.Users) {
			t.Fatalf("pop=%d: merged kept %v, whole kept %v", truePop, a.Users, whole.Users)
		}
		for maxPop := 1; maxPop < userCap; maxPop++ {
			if (len(a.Users) <= maxPop) != (truePop <= maxPop) {
				t.Fatalf("pop=%d maxPop=%d: capped comparison diverged from truth", truePop, maxPop)
			}
		}
	}
}

// TestSWSMergeEqualsSequential: shard-split evidence merged in any order
// equals one accumulator that saw the whole stream.
func TestSWSMergeEqualsSequential(t *testing.T) {
	whole := NewSWSAccumulator()
	parts := []*SWSAccumulator{NewSWSAccumulator(), NewSWSAccumulator(), NewSWSAccumulator()}
	for i := 0; i < 3000; i++ {
		fp := uint64(i % 11)
		user := fmt.Sprintf("user-%d", i%40) // more users than UserCap
		wc := uint64(i % 97)
		whole.Observe(fp, user, wc)
		// Users partition across shards like the sharded engine routes them.
		parts[(i%40)%3].Observe(fp, user, wc)
	}
	merged := parts[2].Clone()
	merged.Merge(parts[0])
	merged.Merge(parts[1])
	if !reflect.DeepEqual(merged.byFP, whole.byFP) {
		t.Fatal("merged shard evidence differs from the sequential accumulator")
	}
	for _, total := range []int{3000, 100000} {
		opt := pattern.SWSOptions{FrequencyPct: 0.1, MaxUserPopularity: 8, MinDisjointRatio: 0.1}
		gotSWS, gotQ := merged.Classify(total, opt)
		wantSWS, wantQ := whole.Classify(total, opt)
		if !reflect.DeepEqual(gotSWS, wantSWS) || gotQ != wantQ {
			t.Fatalf("classification diverged after merge (total=%d)", total)
		}
	}
}

// TestSWSSnapshotRoundTrip: snapshot → JSON → restore → re-snapshot is the
// identity, and the restored evidence classifies the same.
func TestSWSSnapshotRoundTrip(t *testing.T) {
	a := NewSWSAccumulator()
	for i := 0; i < 1000; i++ {
		fp := uint64(i % 13)
		user := fmt.Sprintf("u%d", i%45) // more users than UserCap
		if fp%2 == 0 {
			user = "bot"
		}
		a.Observe(fp, user, uint64(i%31))
	}
	blob, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SWSSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := restoreSWS(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), a.Snapshot()) {
		t.Fatal("re-snapshot differs")
	}
	if !reflect.DeepEqual(got.byFP, a.byFP) {
		t.Fatal("restored evidence differs")
	}
	opt := pattern.SWSOptions{FrequencyPct: 1, MaxUserPopularity: 31, MinDisjointRatio: 0.3}
	gotSWS, gotQ := got.Classify(1000, opt)
	wantSWS, wantQ := a.Classify(1000, opt)
	if len(wantSWS) == 0 || !reflect.DeepEqual(gotSWS, wantSWS) || gotQ != wantQ {
		t.Fatalf("restored classification %v (%d queries), want %v (%d)", gotSWS, gotQ, wantSWS, wantQ)
	}
}

// windowedSnapshot is an SWS snapshot in the encoding of the accumulator
// that split its evidence into event-time windows over a base aggregate.
// Template 1 has evidence in the base and both windows, template 3 in both
// windows, and template 4's user sets together exceed UserCap.
var windowedSnapshot = `{
  "version": 1,
  "hll": {"precision": 4, "registers": "AAAAAAAAAAAAAAAAAAAAAA=="},
  "top": {"capacity": 4},
  "sws": {
    "window_ns": 3600000000000,
    "max_windows": 8,
    "user_cap": 32,
    "flushes": 799,
    "base": [
      {"fingerprint": 1, "freq": 3, "users": ["a", "b"], "wcs": [10, 11, 12]},
      {"fingerprint": 4, "freq": 20, "users": ` + userList(0, 20) + `, "wcs": ` + hashList(100, 120) + `}
    ],
    "windows": [
      {"start_ns": 1054425600000000000, "evidence": [
        {"fingerprint": 1, "freq": 2, "users": ["a"], "wcs": [13, 14]},
        {"fingerprint": 3, "freq": 4, "users": ["bot"], "wcs": [20, 21, 22, 23]},
        {"fingerprint": 4, "freq": 30, "users": ` + userList(10, 40) + `, "wcs": ` + hashList(110, 140) + `}
      ]},
      {"start_ns": 1054429200000000000, "evidence": [
        {"fingerprint": 1, "freq": 1, "users": ["c"], "wcs": [10]},
        {"fingerprint": 3, "freq": 3, "users": ["bot"], "wcs": [24, 25, 26]},
        {"fingerprint": 4, "freq": 10, "users": ` + userList(40, 50) + `, "wcs": ` + hashList(140, 150) + `}
      ]}
    ]
  }
}`

// userList renders users u00..u(hi-1) from lo as a sorted JSON list.
func userList(lo, hi int) string {
	var us []string
	for i := lo; i < hi; i++ {
		us = append(us, fmt.Sprintf("u%02d", i))
	}
	blob, _ := json.Marshal(us)
	return string(blob)
}

// hashList renders the WHERE hashes lo..hi-1 as a JSON list.
func hashList(lo, hi uint64) string {
	var hs []uint64
	for h := lo; h < hi; h++ {
		hs = append(hs, h)
	}
	blob, _ := json.Marshal(hs)
	return string(blob)
}

func wcSet(lo, hi uint64) map[uint64]struct{} {
	set := map[uint64]struct{}{}
	for h := lo; h < hi; h++ {
		set[h] = struct{}{}
	}
	return set
}

// TestSWSRestoresWindowedSnapshot: a snapshot whose evidence is split into a
// base and event-time windows restores to the merged evidence — frequencies
// summed, user sets merged under the cap, WHERE hashes unioned — and
// classifies like it; re-snapshotting writes one evidence list.
func TestSWSRestoresWindowedSnapshot(t *testing.T) {
	var snap Snapshot
	if err := json.Unmarshal([]byte(windowedSnapshot), &snap); err != nil {
		t.Fatal(err)
	}
	sk, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*Evidence{
		1: {Freq: 6, Users: []string{"a", "b", "c"}, WCs: wcSet(10, 15)},
		3: {Freq: 7, Users: []string{"bot"}, WCs: wcSet(20, 27)},
		4: {Freq: 60, WCs: wcSet(100, 150)},
	}
	for i := 0; i < UserCap; i++ {
		want[4].Users = append(want[4].Users, fmt.Sprintf("u%02d", i))
	}
	if got, want := sk.SWS.Snapshot(), (&SWSAccumulator{byFP: want}).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored evidence %+v, want %+v", got, want)
	}

	const total = 73 // the templates' summed frequency
	for _, c := range []struct {
		opt     pattern.SWSOptions
		sws     map[uint64]bool
		queries int
	}{
		{pattern.DefaultSWSOptions(), map[uint64]bool{3: true}, 7},
		{pattern.SWSOptions{FrequencyPct: 1, MaxUserPopularity: 3, MinDisjointRatio: 0.5}, map[uint64]bool{1: true, 3: true}, 13},
		{pattern.SWSOptions{FrequencyPct: 1, MaxUserPopularity: 31}, map[uint64]bool{1: true, 3: true}, 13},
	} {
		sws, queries := sk.SWS.Classify(total, c.opt)
		if !reflect.DeepEqual(sws, c.sws) || queries != c.queries {
			t.Errorf("opt %+v: classified %v (%d queries), want %v (%d)", c.opt, sws, queries, c.sws, c.queries)
		}
	}

	blob, err := json.Marshal(sk.SWS.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys["user_cap"] == nil || keys["base"] == nil {
		t.Errorf("re-snapshot %s, want only user_cap and base", blob)
	}

	snap.SWS.UserCap = 8
	if _, err := Restore(&snap); err == nil {
		t.Error("Restore accepted user sets truncated below UserCap")
	}
}

// TestSketchesBundleRoundTrip covers the versioned bundle: snapshot, restore,
// version guard.
func TestSketchesBundleRoundTrip(t *testing.T) {
	sk := New(Config{})
	for i := 0; i < 2000; i++ {
		u := fmt.Sprintf("user-%d", i%300)
		sk.HLL.AddString(u)
		sk.SWS.Observe(uint64(i%40), u, uint64(i))
	}
	blob, err := json.Marshal(sk.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), sk.Snapshot()) {
		t.Fatal("bundle re-snapshot differs")
	}
	if _, err := Restore(&Snapshot{Version: SnapshotVersion + 1}); err == nil {
		t.Error("Restore accepted a future snapshot version")
	}
	if _, err := Restore(&Snapshot{Version: 0}); err == nil {
		t.Error("Restore accepted version 0")
	}
	if New(Config{Disabled: true}) != nil {
		t.Error("Disabled config must yield a nil sketch set")
	}
}

// topBlockSnapshot is a version-1 bundle in the encoding that still carried
// the state of a top-k template tracker in a "top" block.
const topBlockSnapshot = `{
  "version": 1,
  "hll": {"precision": 4, "registers": "AQIAAwEAAgEEAAECAQMAAQ=="},
  "top": {"capacity": 128, "evictions": 0, "observed": 9, "entries": [
    {"fingerprint": 7, "skeleton": "SELECT a FROM t WHERE b = ?", "count": 6, "err": 0},
    {"fingerprint": 9, "skeleton": "SELECT c FROM u", "count": 3, "err": 0}
  ]},
  "sws": {"user_cap": 32, "base": [
    {"fingerprint": 7, "freq": 6, "users": ["alice"], "wcs": [1, 2, 3]},
    {"fingerprint": 9, "freq": 3, "users": ["bob", "carol"], "wcs": [4]}
  ]}
}`

// TestRestoreIgnoresTopBlock: a bundle with a "top" block restores its HLL
// (precision included) and SWS evidence unchanged, and re-snapshots without
// the block.
func TestRestoreIgnoresTopBlock(t *testing.T) {
	var snap Snapshot
	if err := json.Unmarshal([]byte(topBlockSnapshot), &snap); err != nil {
		t.Fatal(err)
	}
	sk, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.HLL.Snapshot(); !reflect.DeepEqual(got, snap.HLL) {
		t.Errorf("restored HLL %+v, want %+v", got, snap.HLL)
	}
	if got := sk.SWS.Snapshot(); !reflect.DeepEqual(got, snap.SWS) {
		t.Errorf("restored SWS evidence %+v, want %+v", got, snap.SWS)
	}

	blob, err := json.Marshal(sk.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["top"]; ok || len(keys) != 3 {
		t.Errorf("re-snapshot %s, want only version, hll and sws", blob)
	}
}
