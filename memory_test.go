package sqlclean_test

import (
	"runtime"
	"testing"
	"time"

	"sqlclean"
)

// TestStreamBoundedHeap is the streaming engine's bounded-memory gate: four
// laps of the scale-16 generator log, seeds 100 to 103 with event time
// moving forward, go through one shard, and the live heap is read after a
// collection at the end of each lap. What grows with distinct users,
// templates and WHERE clauses grows a little from lap to lap; the parse
// cache must not. The heap after lap 4 may exceed the heap after lap 1 by
// at most a fixed slack. A cache that keeps every distinct statement grew
// the heap from 57.1 to 157.9 MB over the four laps; the fixed-size cache
// reads about 30 to 36 MB.
func TestStreamBoundedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const slack = 16 << 20
	eng := sqlclean.NewShardedStream(sqlclean.ShardedStreamConfig{Shards: 1})
	var heaps []uint64
	var next time.Time // the first event time of the next lap
	var seq int64
	for seed := int64(100); seed <= 103; seed++ {
		cfg := sqlclean.DefaultWorkloadConfig().Scale(16)
		cfg.Seed = seed
		l, _ := sqlclean.GenerateWorkload(cfg)
		l.SortStable()
		var shift time.Duration
		if !next.IsZero() {
			shift = next.Sub(l[0].Time)
		}
		for _, e := range l {
			e.Time = e.Time.Add(shift)
			e.Seq = seq
			seq++
			if _, err := eng.AddShardParsed(0, e); err != nil {
				t.Fatal(err)
			}
		}
		next = l[len(l)-1].Time.Add(shift + 24*time.Hour)
		l = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
		t.Logf("lap %d (seed %d): live heap %.1f MB after %d entries", len(heaps), seed, float64(ms.HeapAlloc)/(1<<20), seq)
	}
	if growth := int64(heaps[3]) - int64(heaps[0]); growth > slack {
		t.Fatalf("live heap grew %.1f MB from lap 1 to lap 4, slack %d MB", float64(growth)/(1<<20), slack>>20)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
