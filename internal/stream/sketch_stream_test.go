package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sqlclean/internal/core"
	"sqlclean/internal/pattern"
	"sqlclean/internal/sketch"
	"sqlclean/internal/workload"
)

// TestStreamingSWSMatchesBatch is the acceptance property: after the stream
// drains, the SWS classifier's verdict must be byte-identical to the batch
// pipeline's (core.Run) on seeded logs — for the default thresholds and for
// harder variants.
func TestStreamingSWSMatchesBatch(t *testing.T) {
	opts := []pattern.SWSOptions{
		pattern.DefaultSWSOptions(),
		{FrequencyPct: 0.05, MaxUserPopularity: 5, MinDisjointRatio: 0.3},
		{FrequencyPct: 0.01, MaxUserPopularity: 12, MinDisjointRatio: 0.9},
	}
	nonEmpty := 0
	for _, seed := range []int64{1, 7, 42} {
		cfg := workload.DefaultConfig().Scale(0.1)
		cfg.Seed = seed
		log, _ := workload.Generate(cfg)
		log.SortStable()
		for i := range log {
			log[i].Seq = int64(i)
		}

		batch, err := core.Run(log, core.Config{})
		if err != nil {
			t.Fatal(err)
		}

		p := serial(Config{})
		for _, e := range log {
			if _, err := p.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		if p.Stats().Selects != len(batch.PreClean) {
			t.Fatalf("seed %d: stream accepted %d selects, batch kept %d", seed, p.Stats().Selects, len(batch.PreClean))
		}

		for _, opt := range opts {
			want := pattern.ClassifySWS(batch.Templates, len(batch.PreClean), opt)
			got := p.ClassifySWS(opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d opt %+v: streaming SWS %v, batch %v", seed, opt, got, want)
			}
			nonEmpty += len(got)
		}
		// The default-threshold verdict is also what core.Run itself reports.
		if got := p.ClassifySWS(pattern.DefaultSWSOptions()); !reflect.DeepEqual(got, batch.SWS) {
			t.Errorf("seed %d: streaming default SWS %v, core.Run reported %v", seed, got, batch.SWS)
		}

		// The distinct-identity sketch must track the exact user count within
		// the acceptance bound.
		exact := map[string]struct{}{}
		for _, e := range log {
			exact[e.User] = struct{}{}
		}
		est := p.Sketches().HLL.Estimate()
		if rel := math.Abs(est-float64(len(exact))) / float64(len(exact)); rel > 0.02 {
			t.Errorf("seed %d: HLL estimate %.1f for %d users (relative error %.4f)", seed, est, len(exact), rel)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no (seed, option) pair classified any template as SWS; the property test is vacuous")
	}
}

// TestShardedSketchSnapshotRoundTrip is the durability property for the
// sketch layer: cut a sharded stream mid-flight, snapshot, restore into a
// fresh engine, finish — the merged cross-shard sketches must equal the
// uninterrupted run's, at 1 and 4 workers, and re-snapshotting immediately
// after restore must reproduce the decoded snapshot.
func TestShardedSketchSnapshotRoundTrip(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()
	for i := range log {
		log[i].Seq = int64(i)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := ShardedConfig{Shards: 8, SweepEvery: 64, Workers: workers}

			run := func(cut int) *sketch.Sketches {
				eng := NewSharded(cfg)
				for i, e := range log {
					if i == cut {
						blob, err := json.Marshal(eng.Snapshot())
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
						// Restore must be lossless: a snapshot taken right
						// now reproduces the decoded one, sketches included.
						if again := eng.Snapshot(); !reflect.DeepEqual(again, decoded) {
							t.Fatal("re-snapshot after restore differs from the restored snapshot")
						}
					}
					if _, err := eng.Add(e); err != nil {
						t.Fatal(err)
					}
				}
				eng.Close()
				return eng.Sketches()
			}

			want := run(-1)
			if want.HLL.Occupied() == 0 || want.SWS.Snapshot().Evidence == nil {
				t.Fatal("uninterrupted run left a sketch empty; the round trip proves nothing")
			}
			got := run(len(log) / 2)
			if !reflect.DeepEqual(got.HLL.Snapshot(), want.HLL.Snapshot()) {
				t.Error("merged HLL registers diverged across the snapshot cut")
			}
			if !reflect.DeepEqual(got.SWS.Snapshot(), want.SWS.Snapshot()) {
				t.Error("merged SWS evidence diverged across the snapshot cut")
			}
			opt := pattern.SWSOptions{FrequencyPct: 0.01, MaxUserPopularity: 12, MinDisjointRatio: 0.9}
			gotSWS, _ := got.SWS.Classify(3000, opt)
			wantSWS, _ := want.SWS.Classify(3000, opt)
			if !reflect.DeepEqual(gotSWS, wantSWS) {
				t.Error("SWS classification diverged across the snapshot cut")
			}
		})
	}
}

// TestRestoreKeepsSnapshotSketchParameters pins the restore policy: the
// snapshot's own HLL precision wins over the default a fresh engine uses, and
// a pre-sketch snapshot (no sketches field) restores to fresh sketches.
func TestRestoreKeepsSnapshotSketchParameters(t *testing.T) {
	p := serial(Config{})
	snap := p.Snapshot()
	sk := snap.Procs[0].Sketches
	if sk == nil || sk.Version != sketch.SnapshotVersion {
		t.Fatalf("snapshot sketches = %+v, want version %d", sk, sketch.SnapshotVersion)
	}
	sk.HLL = sketch.NewHLL(10).Snapshot()

	q := serial(Config{})
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := q.Sketches().HLL.Precision(); got != 10 {
		t.Errorf("restored precision %d, want the snapshot's 10 over the default %d", got, sketch.DefaultPrecision)
	}

	snap.Procs[0].Sketches = nil // a snapshot from before the sketch layer existed
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.Sketches() == nil || q.Sketches().HLL.Precision() != sketch.DefaultPrecision {
		t.Error("pre-sketch snapshot must restore fresh sketches at the default precision")
	}

	d := serial(Config{Sketches: sketch.Config{Disabled: true}})
	if d.Sketches() != nil {
		t.Fatal("disabled config still built sketches")
	}
	if err := d.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if d.Sketches() != nil {
		t.Error("restore resurrected sketches on a disabled engine")
	}
	if d.ClassifySWS(pattern.DefaultSWSOptions()) != nil {
		t.Error("ClassifySWS on a disabled engine must be nil")
	}
}
