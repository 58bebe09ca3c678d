package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/workload"
)

// TestShardedMatchesSerialStream pins shard-count invariance: RunSharded at
// one shard (the serial stream) and at 16, at 1 and 4 workers, gives the
// same output multiset, additive counters, templates and verdicts.
func TestShardedMatchesSerialStream(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	log.SortStable()

	type result struct {
		out       map[string]int
		stats     Stats
		templates []pattern.TemplateStats
		kinds     map[uint64][]string
	}
	run := func(shards, workers int) result {
		eng := NewSharded(ShardedConfig{Shards: shards, Workers: workers})
		out, err := eng.run(log)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		st.OpenSessionsHighWater = 0 // a peak across shards, not additive
		return result{statementMultiset(out), st, eng.Templates(), eng.TemplateKinds()}
	}
	want := run(1, 1)
	if len(want.kinds) == 0 {
		t.Fatal("no template carries a verdict; the comparison is vacuous")
	}
	for _, c := range []struct{ shards, workers int }{{1, 4}, {16, 1}, {16, 4}} {
		got := run(c.shards, c.workers)
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%+v: stats %+v, serial %+v", c, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.out, want.out) {
			t.Errorf("%+v: output multiset differs from the serial stream's", c)
		}
		if !reflect.DeepEqual(got.templates, want.templates) {
			t.Errorf("%+v: templates differ from the serial stream's", c)
		}
		if !reflect.DeepEqual(got.kinds, want.kinds) {
			t.Errorf("%+v: template kinds %v, serial %v", c, got.kinds, want.kinds)
		}
	}
}

// TestAddShardBatchMatchesAddShard pins the batch entry point's faithfulness:
// the same stream applied per entry and in batches (of varying sizes, split
// mid-shard) must leave two engines in identical states — stats, templates,
// watermark, open sessions — and produce the same outputs in the same order.
func TestAddShardBatchMatchesAddShard(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	log.SortStable()
	cfg := ShardedConfig{Shards: 4}

	perEntry := NewSharded(cfg)
	batched := NewSharded(cfg)

	var outA, outB logmodel.Log
	// Per-entry reference.
	for _, e := range log {
		out, err := perEntry.AddShard(perEntry.ShardFor(e.User), e)
		if err != nil {
			t.Fatal(err)
		}
		outA = append(outA, out...)
	}
	// Batched: feed maximal same-shard runs of the input, so the global
	// apply order is identical to the per-entry pass and every divergence
	// is attributable to the batch entry point itself. Runs longer than one
	// entry exercise multi-entry batches; a multiset check would hide
	// nothing here — order must match too.
	batches := 0
	for start := 0; start < len(log); {
		i := batched.ShardFor(log[start].User)
		end := start + 1
		for end < len(log) && batched.ShardFor(log[end].User) == i {
			end++
		}
		batched.AddShardBatch(i, log[start:end], func(k int, out logmodel.Log, err error) {
			if err != nil {
				t.Fatal(err)
			}
			outB = append(outB, out...)
		})
		if end-start > 1 {
			batches++
		}
		start = end
	}
	if batches == 0 {
		t.Fatal("input produced no multi-entry batches; the test lost its point")
	}
	outA = append(outA, perEntry.Close()...)
	outB = append(outB, batched.Close()...)

	if sa, sb := perEntry.Stats(), batched.Stats(); fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
		t.Errorf("stats diverged:\nper-entry %+v\nbatched   %+v", sa, sb)
	}
	if wa, wb := perEntry.Watermark(), batched.Watermark(); !wa.Equal(wb) {
		t.Errorf("watermark diverged: per-entry %v, batched %v", wa, wb)
	}
	if len(outA) != len(outB) {
		t.Fatalf("output length: per-entry %d, batched %d", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("output %d diverged: per-entry %+v, batched %+v", i, outA[i], outB[i])
		}
	}
	ta, tb := perEntry.Templates(), batched.Templates()
	if len(ta) != len(tb) {
		t.Fatalf("templates: per-entry %d, batched %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("template %d diverged: per-entry %+v, batched %+v", i, ta[i], tb[i])
		}
	}
}

// TestTemplateCountsSkipWhere pins the count-only read: it is Templates
// with every DistinctWhere left zero, at one shard and at 16, where some
// template's WHERE sets are spread over several shards.
func TestTemplateCountsSkipWhere(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	log.SortStable()
	for _, shards := range []int{1, 16} {
		eng := NewSharded(ShardedConfig{Shards: shards})
		if _, err := eng.run(log); err != nil {
			t.Fatal(err)
		}
		want := eng.Templates()
		for i := range want {
			want[i].DistinctWhere = 0
		}
		if got := eng.TemplateCounts(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: TemplateCounts %+v, want %+v", shards, got, want)
		}
	}
}

// TestShardedConcurrentAdds hammers the engine from 8 goroutines (each
// owning disjoint users, preserving the per-user ordering contract) and
// checks nothing is lost or double-counted. Run with -race.
func TestShardedConcurrentAdds(t *testing.T) {
	const (
		clients = 8
		perUser = 50
	)
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	eng := NewSharded(ShardedConfig{Shards: 4, Config: Config{Metrics: reg}})

	var mu sync.Mutex
	var emitted logmodel.Log
	// Clients proceed in lockstep rounds: within a round all 8 add
	// concurrently (same timestamp — racing on shard locks, the shared
	// parser and the global watermark), and the barrier between rounds
	// preserves the per-shard time-ordering contract.
	for i := 0; i < perUser; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				e := logmodel.Entry{
					Time:      base.Add(time.Duration(i) * 20 * time.Minute), // every round its own session
					User:      fmt.Sprintf("client%02d", c),
					Statement: fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", c*1000+i),
				}
				out, err := eng.Add(e)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				emitted = append(emitted, out...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}
	emitted = append(emitted, eng.Close()...)

	st := eng.Stats()
	want := clients * perUser
	if st.In != want || st.Selects != want || st.Out != want {
		t.Errorf("stats: %+v, want in=selects=out=%d", st, want)
	}
	if len(emitted) != want {
		t.Errorf("emitted %d entries, want %d", len(emitted), want)
	}
	if st.SessionsEmitted != want {
		t.Errorf("sessions emitted %d, want %d", st.SessionsEmitted, want)
	}
	if hw := st.OpenSessionsHighWater; hw < 1 || hw > clients {
		t.Errorf("open-session high water %d outside [1, %d]", hw, clients)
	}
	if g := reg.Gauge("stream_open_sessions"); g.Value() != 0 {
		t.Errorf("open-session gauge not drained: %d", g.Value())
	}
}

// TestQuietShardKeepsItsSession pins that sessions close on their own
// shard's clock. User q opens a session; 300 entries of users on other
// shards then carry the global watermark three gaps past it; q's next entry,
// half a gap after the first, is in order for q's shard and must extend the
// same session. The engine must then emit what RunSharded emits over the
// same entries sorted by time, with the same counters.
func TestQuietShardKeepsItsSession(t *testing.T) {
	const gap = 5 * time.Minute
	t0 := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	eng := NewSharded(ShardedConfig{Shards: 8})
	const q = "quiet-user"
	entries := logmodel.Log{{Seq: 0, Time: t0, User: q, Statement: "SELECT name FROM Employees WHERE id = 1"}}
	for i := 0; len(entries) <= 300; i++ {
		u := fmt.Sprintf("busy%d", i%40)
		if eng.ShardFor(u) == eng.ShardFor(q) {
			continue
		}
		entries = append(entries, logmodel.Entry{
			Seq:       int64(len(entries)),
			Time:      t0.Add(3*gap + time.Duration(i)*time.Second),
			User:      u,
			Statement: fmt.Sprintf("SELECT %s FROM Employees WHERE id = %d", []string{"name", "age"}[i%2], i),
		})
	}
	entries = append(entries, logmodel.Entry{Seq: int64(len(entries)), Time: t0.Add(gap / 2), User: q, Statement: "SELECT name FROM Employees WHERE id = 2"})

	var got logmodel.Log
	for _, e := range entries {
		out, err := eng.Add(e)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	got = append(got, eng.Close()...)
	gotStats := eng.Stats()
	gotStats.OpenSessionsHighWater = 0

	sorted := slices.Clone(entries)
	sorted.SortStable()
	want, wantStats, err := RunSharded(sorted, ShardedConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantStats.OpenSessionsHighWater = 0
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats %+v, sorted run %+v", gotStats, wantStats)
	}
	if len(got) != len(want) || !reflect.DeepEqual(statementMultiset(got), statementMultiset(want)) {
		t.Errorf("emitted %d entries, sorted run %d: output multisets differ", len(got), len(want))
	}
}

// TestShardedSharedParser pins the shared parse cache: two shards seeing the
// same statement text share one cache, so while the text stays cached (a
// lone text cannot be pushed out) they produce one miss and one hit,
// aggregated in the registry the parser was instrumented with.
func TestShardedSharedParser(t *testing.T) {
	reg := obs.NewRegistry()
	parser := parsedlog.NewParser()
	parser.Instrument(reg)
	eng := NewSharded(ShardedConfig{Shards: 4, Config: Config{Parser: parser}})

	// Two users in different shards issuing the identical statement.
	a := "alice"
	b := ""
	for i := 0; ; i++ {
		u := fmt.Sprintf("bob%d", i)
		if eng.ShardFor(u) != eng.ShardFor(a) {
			b = u
			break
		}
	}
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	const stmt = "SELECT name FROM Employees WHERE id = 7"
	if _, err := eng.Add(logmodel.Entry{Time: base, User: a, Statement: stmt}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add(logmodel.Entry{Time: base.Add(time.Second), User: b, Statement: stmt}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("parse_cache_misses_total").Value(); got != 1 {
		t.Errorf("cache misses: %d, want 1 (shared cache)", got)
	}
	if got := reg.Counter("parse_cache_hits_total").Value(); got != 1 {
		t.Errorf("cache hits: %d, want 1", got)
	}
}

// TestParseCacheResidency checks that the fixed-size parse cache holds a
// cycling log's working set: an engine fed the scale-1 generator log lap
// after lap, event time moving forward, must hit on at least 99% of its
// lookups after the first lap. The engine's own lookups count: one per
// entry, and one per replacement statement at session close.
func TestParseCacheResidency(t *testing.T) {
	const laps = 5
	log, _ := workload.Generate(workload.DefaultConfig())
	log.SortStable()
	shift := log[len(log)-1].Time.Sub(log[0].Time) + 24*time.Hour
	reg := obs.NewRegistry()
	eng := NewSharded(ShardedConfig{Shards: 8, Config: Config{Metrics: reg}})
	hits, misses := reg.Counter("parse_cache_hits_total"), reg.Counter("parse_cache_misses_total")
	var warmHits, warmMisses int64
	for lap := 0; lap < laps; lap++ {
		for _, e := range log {
			e.Time = e.Time.Add(time.Duration(lap) * shift)
			e.Seq += int64(lap * len(log))
			if _, err := eng.AddShardParsed(eng.ShardFor(e.User), e); err != nil {
				t.Fatal(err)
			}
		}
		if lap == 0 {
			warmHits, warmMisses = hits.Value(), misses.Value()
		}
	}
	h, m := hits.Value()-warmHits, misses.Value()-warmMisses
	ratio := float64(h) / float64(h+m)
	t.Logf("first lap: %d misses of %d lookups; laps 2-%d: %d misses of %d lookups (%.4f hit)",
		warmMisses, warmHits+warmMisses, laps, m, h+m, ratio)
	if ratio < 0.99 {
		t.Fatalf("after the first lap the cache hit %.4f of %d lookups, want at least 0.99", ratio, h+m)
	}
}

// TestEvictionBoundHolds checks the shards' eviction bound (minLast) under
// what can move it: per-user entries that step back in time by less than
// the gap, and a restore of an earlier snapshot into the running engine.
// After every call no open session may be more than a gap behind its
// shard's watermark, and a set bound must not exceed any open session's
// last activity. The run after the restore must emit what the first pass
// emitted from the same point.
func TestEvictionBoundHolds(t *testing.T) {
	const gap = 5 * time.Minute
	rng := rand.New(rand.NewSource(21))
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	var entries logmodel.Log
	for i := 0; i < 3600; i++ {
		if rng.Intn(50) == 0 {
			clock = clock.Add(gap + time.Duration(rng.Int63n(int64(gap))))
		} else {
			clock = clock.Add(time.Duration(rng.Int63n(int64(4 * time.Second))))
		}
		back := time.Duration(rng.Int63n(int64(gap * 9 / 10)))
		entries = append(entries, logmodel.Entry{
			Seq:       int64(i),
			Time:      clock.Add(-back),
			User:      fmt.Sprintf("10.0.0.%d", rng.Intn(40)),
			Rows:      1,
			Statement: fmt.Sprintf("SELECT %s FROM Employees WHERE id = %d", []string{"name", "age"}[rng.Intn(2)], rng.Intn(30)),
		})
	}

	check := func(eng *Sharded, when string) {
		t.Helper()
		for i, sh := range eng.shards {
			sh.mu.Lock()
			for _, os := range sh.open {
				if sh.watermark.Sub(os.last) > gap {
					t.Fatalf("%s: shard %d keeps %s's session open, last active %v, %v behind the watermark",
						when, i, os.user, os.last, sh.watermark.Sub(os.last))
				}
				if !sh.minLast.IsZero() && os.last.Before(sh.minLast) {
					t.Fatalf("%s: shard %d bound %v is after %s's last activity %v", when, i, sh.minLast, os.user, os.last)
				}
			}
			sh.mu.Unlock()
		}
	}
	add := func(eng *Sharded, k int) logmodel.Log {
		out, err := eng.Add(entries[k])
		if err != nil {
			t.Fatalf("entry %d: %v", k, err)
		}
		return out
	}

	cfg := ShardedConfig{Shards: 4, Config: Config{SessionGap: gap}}
	eng := NewSharded(cfg)
	mid, rewind := len(entries)/3, 2*len(entries)/3
	var snap ShardedSnapshot
	var firstPass []logmodel.Log
	for k := 0; k < rewind; k++ {
		if k == mid {
			snap = eng.Snapshot()
		}
		out := add(eng, k)
		if k >= mid {
			firstPass = append(firstPass, out)
		}
		check(eng, fmt.Sprintf("entry %d", k))
	}
	if eng.OpenSessions() == 0 {
		t.Fatal("no session open at the rewind: the test exercises nothing")
	}
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check(eng, "restore")
	for k := mid; k < len(entries); k++ {
		out := add(eng, k)
		if k < rewind && !reflect.DeepEqual(out, firstPass[k-mid]) {
			t.Fatalf("entry %d after the restore emitted %d entries, first pass %d", k, len(out), len(firstPass[k-mid]))
		}
		check(eng, fmt.Sprintf("entry %d after the restore", k))
	}
}

// TestAddShardAllocsPerEntry pins the engine's allocations per entry on the
// path the daemon's drains run: one lap of the scale-1 generator log through
// AddShardParsed at 8 shards, with the parser warmed by a first lap on
// another engine that shares it, so only what the cache cannot hold is
// parsed. The cache's sets are picked by a per-process hash seed, so the
// few texts that share an over-full set miss in every lap, and the count
// moves from run to run: 2.949 to 2.963 per entry over 200 processes when
// the pin was last lowered. The bound sits just above that.
func TestAddShardAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEntry = 2.97
	log, _ := workload.Generate(workload.DefaultConfig())
	log.SortStable()
	parser := parsedlog.NewParser()
	lap := func() {
		eng := NewSharded(ShardedConfig{Shards: 8, Config: Config{Parser: parser}})
		for _, e := range log {
			if _, err := eng.AddShardParsed(eng.ShardFor(e.User), e); err != nil {
				t.Fatal(err)
			}
		}
	}
	lap()
	if perEntry := testing.AllocsPerRun(3, lap) / float64(len(log)); perEntry > maxPerEntry {
		t.Fatalf("AddShardParsed allocates %.4f times per entry, bound %.3f", perEntry, maxPerEntry)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
