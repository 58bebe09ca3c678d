package stream

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/workload"
)

// TestProcessorSnapshotRoundTrip is the core durability property on the
// serial stream: cut a stream at an arbitrary point, snapshot, restore
// into a fresh one-shard engine (via JSON, as the daemon stores it), finish
// the stream — stats, templates and output must match the uninterrupted run.
func TestProcessorSnapshotRoundTrip(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()
	for i := range log {
		log[i].Seq = int64(i)
	}

	run := func(cut int) (Stats, logmodel.Log) {
		p := serial(Config{})
		var out logmodel.Log
		for i, e := range log {
			if i == cut {
				snap := p.Snapshot()
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded ShardedSnapshot
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				p = serial(Config{})
				if err := p.Restore(decoded); err != nil {
					t.Fatal(err)
				}
			}
			emitted, err := p.Add(e)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, emitted...)
		}
		out = append(out, p.Close()...)
		return p.Stats(), out
	}

	wantStats, wantOut := run(-1) // uninterrupted
	for _, cut := range []int{0, 1, len(log) / 3, len(log) / 2, len(log) - 1} {
		gotStats, gotOut := run(cut)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("cut %d: stats diverged:\n got %+v\nwant %+v", cut, gotStats, wantStats)
		}
		if len(gotOut) != len(wantOut) {
			t.Fatalf("cut %d: %d output entries, want %d", cut, len(gotOut), len(wantOut))
		}
		for i := range gotOut {
			if gotOut[i].Statement != wantOut[i].Statement || !gotOut[i].Time.Equal(wantOut[i].Time) {
				t.Fatalf("cut %d: output %d diverged: %+v vs %+v", cut, i, gotOut[i], wantOut[i])
			}
		}
	}
}

// TestProcessorSnapshotPrunesDedup pins the dedup-window pruning: slots the
// watermark proves unreachable are dropped, live ones survive.
func TestProcessorSnapshotPrunesDedup(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	p := serial(Config{SessionGap: time.Minute, DuplicateThreshold: time.Second})
	add := func(min int, user string) {
		_, err := p.Add(logmodel.Entry{Time: base.Add(time.Duration(min) * time.Minute), User: user,
			Statement: "SELECT name FROM Employees WHERE id = 1"})
		if err != nil {
			t.Fatal(err)
		}
	}
	add(0, "old")  // will fall behind the horizon
	add(10, "new") // at the watermark
	snap := p.Snapshot().Procs[0]
	if len(snap.Dedup) != 1 || snap.Dedup[0].User != "new" {
		t.Fatalf("dedup snapshot = %+v, want only the live slot", snap.Dedup)
	}
	if n := len(p.shards[0].lastSeen); n != 2 {
		t.Fatalf("snapshot must not mutate the live window (len=%d)", n)
	}
}

// TestShardedSnapshotRoundTrip cuts a sharded stream, snapshots, restores
// into a fresh engine and finishes — merged stats (the open-session peak
// included) and templates must match an uninterrupted sharded run, and
// restore must reject a shard mismatch.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()
	for i := range log {
		log[i].Seq = int64(i)
	}
	cfg := ShardedConfig{Shards: 8}

	run := func(cut int) (Stats, int) {
		eng := NewSharded(cfg)
		for i, e := range log {
			if i == cut {
				snap := eng.Snapshot()
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded ShardedSnapshot
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				eng = NewSharded(cfg)
				if err := eng.Restore(decoded); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		return eng.Stats(), len(eng.Templates())
	}

	wantStats, wantTmpl := run(-1)
	gotStats, gotTmpl := run(len(log) / 2)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("sharded stats diverged:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if gotTmpl != wantTmpl {
		t.Errorf("templates: got %d want %d", gotTmpl, wantTmpl)
	}

	other := NewSharded(ShardedConfig{Shards: 4})
	if err := other.Restore(ShardedSnapshot{Shards: 8, Procs: make([]ShardSnapshot, 8)}); err == nil {
		t.Error("Restore accepted a shard-count mismatch")
	}
}

// TestShardForDeterministic pins the routing function across processes: the
// values below were computed once and must never change, or snapshots taken
// by old binaries would restore onto the wrong shards.
func TestShardForDeterministic(t *testing.T) {
	eng := NewSharded(ShardedConfig{Shards: 16})
	want := map[string]uint64{
		"":              0xcbf29ce484222325,
		"alice":         0x508b2abb65a03907,
		"192.168.0.1":   0x2e9082d8e3366183,
		"bob@skyserver": 0xefc16191c3874dc6,
	}
	for user, h := range want {
		if got := userHash(user); got != h {
			t.Errorf("userHash(%q) = %#x, want %#x (routing function changed!)", user, got, h)
		}
		if got := eng.ShardFor(user); got != int(h&15) {
			t.Errorf("ShardFor(%q) = %d, want %d", user, got, int(h&15))
		}
	}
}

// TestMaxFutureSkewGuard pins the watermark guard: a corrupted far-future
// entry is rejected (counted) and does not poison the watermark, so in-order
// entries keep flowing and open sessions survive.
func TestMaxFutureSkewGuard(t *testing.T) {
	reg := obs.NewRegistry()
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	eng := NewSharded(ShardedConfig{
		Shards: 4, MaxFutureSkew: time.Hour,
		Config: Config{SessionGap: time.Minute, Metrics: reg},
	})
	add := func(tm time.Time, user string) error {
		_, err := eng.Add(logmodel.Entry{Time: tm, User: user,
			Statement: "SELECT name FROM Employees WHERE id = 1"})
		return err
	}
	if err := add(base, "alice"); err != nil {
		t.Fatal(err)
	}
	// Corrupted entry, 30 years in the future, on alice's shard: admitted,
	// it would close her session and make her next entry out of order.
	err := add(base.AddDate(30, 0, 0), "alice")
	if !errors.Is(err, ErrFutureSkew) {
		t.Fatalf("far-future entry: err=%v, want ErrFutureSkew", err)
	}
	// The watermark must not have moved: alice's session survives and her
	// next in-order entry is accepted.
	if err := add(base.Add(10*time.Second), "alice"); err != nil {
		t.Fatalf("in-order entry rejected after guarded skew: %v", err)
	}
	if eng.OpenSessions() != 1 {
		t.Errorf("open sessions = %d, want 1 (session must survive)", eng.OpenSessions())
	}
	if n := reg.Snapshot().Counters["stream_rejected_future_skew_total"]; n != 1 {
		t.Errorf("skew rejections counter = %d, want 1", n)
	}
	// Within the bound, the watermark still advances freely.
	if err := add(base.Add(30*time.Minute), "alice"); err != nil {
		t.Fatal(err)
	}
	// The first entry ever is exempt (no watermark yet).
	fresh := NewSharded(ShardedConfig{Shards: 2, MaxFutureSkew: time.Hour})
	if _, err := fresh.Add(logmodel.Entry{Time: base.AddDate(30, 0, 0), User: "u", Statement: "SELECT 1"}); err != nil {
		t.Errorf("first entry rejected by skew guard: %v", err)
	}
}
