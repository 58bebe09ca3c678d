// The streaming engine against the batch pipeline (internal/core). These
// tests live in package stream_test because core imports this package.
package stream_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/core"
	"sqlclean/internal/dedup"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/pattern"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

// TestStreamMatchesBatchPipeline is the headline equivalence: over the full
// synthetic workload, the streaming pass must produce the same multiset of
// cleaned statements as the batch pipeline (modulo SWS handling, which the
// stream does not apply).
func TestStreamMatchesBatchPipeline(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.4))
	log.SortStable()

	batch, err := core.Run(log, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, st, err := stream.RunSharded(log, stream.ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	if st.Duplicates != batch.Dedup.Removed {
		t.Errorf("duplicates: stream %d, batch %d", st.Duplicates, batch.Dedup.Removed)
	}
	mb := multiset(batch.Clean)
	ms := multiset(streamed)
	if len(mb) != len(ms) {
		t.Fatalf("distinct statements: batch %d, stream %d", len(mb), len(ms))
	}
	for s, n := range mb {
		if ms[s] != n {
			t.Fatalf("statement %q: batch %d, stream %d", s, n, ms[s])
		}
	}
	// Template statistics agree with the batch miner.
	ts := stream.NewSharded(stream.ShardedConfig{Shards: 1})
	for _, e := range log {
		if _, err := ts.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	streamT := ts.Templates()
	if len(streamT) != len(batch.Templates) {
		t.Fatalf("templates: stream %d, batch %d", len(streamT), len(batch.Templates))
	}
	batchBySkel := map[string]int{}
	for _, tt := range batch.Templates {
		batchBySkel[tt.Skeleton] = tt.Frequency
	}
	sort.Slice(streamT, func(i, j int) bool { return streamT[i].Skeleton < streamT[j].Skeleton })
	for _, tt := range streamT {
		if batchBySkel[tt.Skeleton] != tt.Frequency {
			t.Fatalf("template %q: stream %d, batch %d", tt.Skeleton, tt.Frequency, batchBySkel[tt.Skeleton])
		}
	}
}

// TestShardedMatchesBatchPipeline is the acceptance equivalence: the sharded
// streaming engine must produce the same multiset of cleaned statements, the
// same duplicate count and the same distinct-user count as the serial batch
// pipeline (order-normalized — emission order differs by construction). The
// generator's log holds one or two sessions open at a time; the retimed
// scale-1 log (denseLog) holds over a hundred. Under dedup.Unrestricted
// every later repeat is a duplicate, however far apart. A negative session
// gap, which the batch pipeline reads as "no gap splitting", the stream
// refuses: it would never close a session on silence.
func TestShardedMatchesBatchPipeline(t *testing.T) {
	sparse, _ := workload.Generate(workload.DefaultConfig().Scale(0.4))
	sparse.SortStable()
	dense := denseLog()
	for _, c := range []struct {
		name             string
		log              logmodel.Log
		shards, workers  int
		minOpenHighWater int
		dup              time.Duration
	}{
		{"scale 0.4", sparse, 8, 1, 0, 0},
		{"scale 0.4", sparse, 8, 4, 0, 0},
		{"dense", dense, 1, 1, 100, 0},
		{"dense", dense, 8, 4, 100, 0},
		{"scale 0.4, unrestricted dedup", sparse, 1, 1, 0, dedup.Unrestricted},
		{"scale 0.4, unrestricted dedup", sparse, 8, 4, 0, dedup.Unrestricted},
	} {
		name := fmt.Sprintf("%s, %d shards, %d workers", c.name, c.shards, c.workers)
		batch, err := core.Run(c.log, core.Config{DuplicateThreshold: c.dup})
		if err != nil {
			t.Fatal(err)
		}
		eng := stream.NewSharded(stream.ShardedConfig{Shards: c.shards, Workers: c.workers, Config: stream.Config{DuplicateThreshold: c.dup}})
		streamed, err := eng.Run(c.log)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.Duplicates != batch.Dedup.Removed {
			t.Errorf("%s: duplicates: sharded %d, batch %d", name, st.Duplicates, batch.Dedup.Removed)
		}
		if got, want := eng.DistinctUsers(), batch.Report.DistinctUsers; got != want {
			t.Errorf("%s: distinct users: sharded %d, batch %d", name, got, want)
		}
		if st.OpenSessionsHighWater < c.minOpenHighWater {
			t.Errorf("%s: at most %d sessions open at once, want at least %d", name, st.OpenSessionsHighWater, c.minOpenHighWater)
		}
		if !reflect.DeepEqual(multiset(streamed), multiset(batch.Clean)) {
			t.Errorf("%s: cleaned statement multiset differs from batch's", name)
		}
	}
	for _, shards := range []int{1, 8} {
		_, _, err := stream.RunSharded(sparse, stream.ShardedConfig{Shards: shards, Config: stream.Config{SessionGap: -time.Second}})
		if err == nil || !strings.Contains(err.Error(), "-1s") {
			t.Errorf("%d shards, session gap -1s: err = %v, want a refusal naming -1s", shards, err)
		}
	}
}

// denseLog is the scale-1 generator log with entry i retimed to
// T0 + i·40 ms, the event-clock step perfbench uses. The generator spreads
// its log over about five years, so few of its users are active within one
// session gap; retimed, the whole log spans 326 s and more than a hundred
// sessions are open at once.
func denseLog() logmodel.Log {
	log, _ := workload.Generate(workload.DefaultConfig())
	log.SortStable()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range log {
		log[i].Time = t0.Add(time.Duration(i) * 40 * time.Millisecond)
	}
	return log
}

// TestStreamingSWSMatchesBatch is the acceptance property: after the stream
// drains, its template statistics, SWS verdicts and distinct-user count must
// equal the batch pipeline's (core.Run) on seeded logs — for the default
// thresholds and for harder variants, at one shard and at eight, where one
// WHERE clause reaches several shards. A popularity threshold above 32 pins
// that no template's user set is capped.
func TestStreamingSWSMatchesBatch(t *testing.T) {
	opts := []pattern.SWSOptions{
		pattern.DefaultSWSOptions(),
		{FrequencyPct: 0.05, MaxUserPopularity: 5, MinDisjointRatio: 0.3},
		{FrequencyPct: 0.01, MaxUserPopularity: 12, MinDisjointRatio: 0.9},
		{FrequencyPct: 0.01, MaxUserPopularity: 40, MinDisjointRatio: 0},
	}
	nonEmpty := 0
	for _, scale := range []float64{0.1, 1} {
		for _, seed := range []int64{1, 7, 42} {
			cfg := workload.DefaultConfig().Scale(scale)
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

			for _, shards := range []int{1, 8} {
				name := fmt.Sprintf("scale %g seed %d shards %d", scale, seed, shards)
				p := stream.NewSharded(stream.ShardedConfig{Shards: shards})
				for _, e := range log {
					if _, err := p.Add(e); err != nil {
						t.Fatal(err)
					}
				}
				p.Close()
				templates, selects := p.Templates(), p.Stats().Selects
				if selects != len(batch.PreClean) {
					t.Fatalf("%s: stream accepted %d selects, batch kept %d", name, selects, len(batch.PreClean))
				}
				if got, want := templateCounts(templates), templateCounts(batch.Templates); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: template statistics differ from core.Run's:\n%s", name, diffCounts(got, want))
				}

				for _, opt := range opts {
					want := pattern.ClassifySWS(batch.Templates, len(batch.PreClean), opt)
					got := pattern.ClassifySWS(templates, selects, opt)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s opt %+v: streaming SWS %d templates, batch %d", name, opt, len(got), len(want))
					}
					nonEmpty += len(got)
				}
				// The default-threshold verdict is also what core.Run itself reports.
				if got := pattern.ClassifySWS(templates, selects, pattern.DefaultSWSOptions()); !reflect.DeepEqual(got, batch.SWS) {
					t.Errorf("%s: streaming default SWS %v, core.Run reported %v", name, got, batch.SWS)
				}

				if got, want := p.DistinctUsers(), batch.Report.DistinctUsers; got != want {
					t.Errorf("%s: %d distinct users, core.Run counted %d", name, got, want)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no (log, option) pair classified any template as SWS; the property test is vacuous")
	}
}

// counts are the three statistics SWS classification reads.
type counts struct{ freq, users, wheres int }

func templateCounts(ts []pattern.TemplateStats) map[uint64]counts {
	m := make(map[uint64]counts, len(ts))
	for _, t := range ts {
		m[t.Fingerprint] = counts{t.Frequency, t.UserPopularity, t.DistinctWhere}
	}
	return m
}

func diffCounts(got, want map[uint64]counts) string {
	var b strings.Builder
	for fp, w := range want {
		if g, ok := got[fp]; !ok || g != w {
			fmt.Fprintf(&b, "  template %d: stream %+v, batch %+v\n", fp, g, w)
		}
	}
	for fp, g := range got {
		if _, ok := want[fp]; !ok {
			fmt.Fprintf(&b, "  template %d: stream %+v, not in batch\n", fp, g)
		}
	}
	return b.String()
}

func multiset(l logmodel.Log) map[string]int {
	m := map[string]int{}
	for _, e := range l {
		m[e.Statement]++
	}
	return m
}
