package stream

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/workload"
)

// serial returns a one-shard engine: the serial stream.
func serial(cfg Config) *Sharded { return NewSharded(ShardedConfig{Config: cfg, Shards: 1}) }

func TestStreamMergesStifleRun(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	p := serial(Config{})
	var out logmodel.Log
	add := func(off time.Duration, user, stmt string) {
		emitted, err := p.Add(logmodel.Entry{Time: base.Add(off), User: user, Statement: stmt})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, emitted...)
	}
	add(0, "u", "SELECT name FROM Employees WHERE id = 1")
	add(time.Second, "u", "SELECT name FROM Employees WHERE id = 2")
	add(2*time.Second, "u", "SELECT name FROM Employees WHERE id = 3")
	// Nothing emitted while the session is open.
	if len(out) != 0 {
		t.Fatalf("premature emission: %v", out)
	}
	out = append(out, p.Close()...)
	if len(out) != 1 {
		t.Fatalf("clean: %v", out)
	}
	if got := out[0].Statement; got != "SELECT id, name FROM Employees WHERE id IN (1, 2, 3)" {
		t.Errorf("merged: %q", got)
	}
	st := p.Stats()
	if st.Antipatterns[antipattern.DWStifle] != 1 || st.SolvedQueries != 3 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStreamTemplateKinds(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	p := serial(Config{})
	stifled := "SELECT name FROM Employees WHERE id = %d"
	for i := 0; i < 3; i++ {
		if _, err := p.Add(logmodel.Entry{Time: base.Add(time.Duration(i) * time.Second), User: "u",
			Statement: fmt.Sprintf(stifled, i)}); err != nil {
			t.Fatal(err)
		}
	}
	// An innocent template from another user: must stay verdict-free.
	if _, err := p.Add(logmodel.Entry{Time: base, User: "v",
		Statement: "SELECT top 5 name FROM Employees"}); err != nil {
		t.Fatal(err)
	}
	if got := p.TemplateKinds(); len(got) != 0 {
		t.Fatalf("verdicts before any session closed: %v", got)
	}
	p.Close()

	kinds := p.TemplateKinds()
	var stifleFP uint64
	for _, ts := range p.Templates() {
		if ts.Frequency == 3 {
			stifleFP = ts.Fingerprint
		}
	}
	if got := kinds[stifleFP]; len(got) != 1 || got[0] != string(antipattern.DWStifle) {
		t.Fatalf("stifled template kinds = %v, want [%s] (all: %v)", got, antipattern.DWStifle, kinds)
	}
	if len(kinds) != 1 {
		t.Fatalf("innocent template got a verdict: %v", kinds)
	}

	// Verdicts survive a snapshot/restore round trip.
	p2 := serial(Config{})
	if err := p2.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	kinds2 := p2.TemplateKinds()
	if len(kinds2) != 1 || len(kinds2[stifleFP]) != 1 || kinds2[stifleFP][0] != string(antipattern.DWStifle) {
		t.Fatalf("restored kinds = %v", kinds2)
	}
}

func TestStreamSessionClosesOnGap(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	p := serial(Config{})
	out, _ := p.Add(logmodel.Entry{Time: base, User: "u", Statement: "SELECT name FROM Employees WHERE id = 1"})
	if len(out) != 0 {
		t.Fatal("early emission")
	}
	// 10 minutes later: the previous session closes and is emitted.
	out, err := p.Add(logmodel.Entry{Time: base.Add(10 * time.Minute), User: "u", Statement: "SELECT name FROM Employees WHERE id = 2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Statement != "SELECT name FROM Employees WHERE id = 1" {
		t.Fatalf("emitted: %v", out)
	}
	if p.OpenSessions() != 1 {
		t.Errorf("open sessions: %d", p.OpenSessions())
	}
}

func TestStreamWatermarkEvictsSilentUsers(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	p := serial(Config{})
	_, _ = p.Add(logmodel.Entry{Time: base, User: "quiet", Statement: "SELECT 1"})
	// Another user's activity advances the watermark past quiet's gap.
	out, err := p.Add(logmodel.Entry{Time: base.Add(time.Hour), User: "busy", Statement: "SELECT 2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].User != "quiet" {
		t.Fatalf("eviction: %v", out)
	}
	if p.OpenSessions() != 1 {
		t.Errorf("open sessions: %d", p.OpenSessions())
	}
}

func TestStreamRejectsTimeTravel(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	p := serial(Config{})
	if _, err := p.Add(logmodel.Entry{Time: base, User: "u", Statement: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add(logmodel.Entry{Time: base.Add(-time.Hour), User: "u", Statement: "SELECT 2"}); err == nil {
		t.Fatal("want ordering error")
	}
}

func TestStreamDeduplicates(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	p := serial(Config{})
	_, _ = p.Add(logmodel.Entry{Time: base, User: "u", Statement: "SELECT 1"})
	_, _ = p.Add(logmodel.Entry{Time: base.Add(200 * time.Millisecond), User: "u", Statement: "SELECT 1"})
	out := p.Close()
	if len(out) != 1 || p.Stats().Duplicates != 1 {
		t.Fatalf("dedup: %v, %+v", out, p.Stats())
	}
}

func statementMultiset(l logmodel.Log) map[string]int {
	m := map[string]int{}
	for _, e := range l {
		m[e.Statement]++
	}
	return m
}

// TestStreamBoundedMemory checks the memory bound: open sessions never
// exceed the number of concurrently active users.
func TestStreamBoundedMemory(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.5))
	log.SortStable()
	p := serial(Config{})
	maxOpen := 0
	for _, e := range log {
		if _, err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		if n := p.OpenSessions(); n > maxOpen {
			maxOpen = n
		}
	}
	p.Close()
	users := log.Users()
	if maxOpen > users {
		t.Fatalf("open sessions %d exceeded user count %d", maxOpen, users)
	}
	// The watermark eviction keeps the working set far below the total
	// user count on a 5-year log.
	if maxOpen > users/2 {
		t.Errorf("weak eviction: %d open of %d users", maxOpen, users)
	}
}

// TestStreamHighWaterMarkGauge pins the observable version of the memory
// bound: with many users interleaving over many rounds, the open-session
// gauge's high-water mark stays at the concurrent-user count, far below the
// total number of sessions the stream emits. This is the metric a production
// deployment would alert on.
func TestStreamHighWaterMarkGauge(t *testing.T) {
	const (
		users  = 50
		rounds = 10
	)
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	p := serial(Config{Metrics: reg})
	// Each round, every user issues a burst of queries; rounds are spaced
	// further apart than the session gap, so every round closes every
	// user's session — users×rounds sessions total, only `users` ever open.
	for round := 0; round < rounds; round++ {
		roundStart := base.Add(time.Duration(round) * time.Hour)
		for q := 0; q < 3; q++ {
			for u := 0; u < users; u++ {
				e := logmodel.Entry{
					Time:      roundStart.Add(time.Duration(q)*time.Second + time.Duration(u)*time.Millisecond),
					User:      fmt.Sprintf("user%02d", u),
					Statement: fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", round*1000+q),
				}
				if _, err := p.Add(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p.Close()

	st := p.Stats()
	totalSessions := users * rounds
	if st.SessionsEmitted != totalSessions {
		t.Fatalf("sessions emitted: %d, want %d", st.SessionsEmitted, totalSessions)
	}
	if st.OpenSessionsHighWater > users {
		t.Errorf("high-water mark %d exceeds concurrent users %d", st.OpenSessionsHighWater, users)
	}
	if st.OpenSessionsHighWater < users {
		t.Errorf("high-water mark %d never reached full concurrency %d", st.OpenSessionsHighWater, users)
	}
	// The gauge's Max agrees with the stats field, and the final value is 0.
	g := reg.Gauge("stream_open_sessions")
	if got := int(g.Max()); got != st.OpenSessionsHighWater {
		t.Errorf("gauge max %d != stats high water %d", got, st.OpenSessionsHighWater)
	}
	if g.Value() != 0 {
		t.Errorf("gauge not drained at close: %d", g.Value())
	}
	if int(g.Max()) >= totalSessions {
		t.Errorf("memory bound violated: peak %d not below total sessions %d", int(g.Max()), totalSessions)
	}
	if got := reg.Counter("stream_sessions_emitted_total").Value(); got != int64(totalSessions) {
		t.Errorf("emitted counter %d, want %d", got, totalSessions)
	}
}

// TestDedupWindowStaysBounded streams distinct statements across many
// session gaps: the live dedup map must stay near the slots a future entry
// can still match, and pruning it must not change what the engine and
// RunSharded emit. One user's duplicates arrive late, behind every other entry of
// their round, so a prune horizon without the session-gap allowance for
// late entries would miss them.
func TestDedupWindowStaysBounded(t *testing.T) {
	const users, rounds = 20, 60
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	stmt := func(round, k int) string {
		return fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", round*10+k)
	}
	var log logmodel.Log
	for r := 0; r < rounds; r++ {
		start := base.Add(time.Duration(r) * 10 * time.Minute)
		round := logmodel.Log{{Time: start, User: "late", Statement: stmt(r, 7)}}
		for u := 0; u < users; u++ {
			t0 := start.Add(time.Duration(u+1) * 10 * time.Millisecond)
			add := func(off time.Duration, s string) {
				round = append(round, logmodel.Entry{Time: t0.Add(off), User: fmt.Sprintf("user%02d", u), Statement: s})
			}
			add(0, stmt(r, 0))
			add(500*time.Millisecond, stmt(r, 0)) // duplicate within the 1 s threshold
			for k := 1; k < 5; k++ {
				add(time.Duration(k)*2*time.Second, stmt(r, k))
			}
			if r > 0 {
				add(11*time.Second, stmt(r-1, 1)) // repeat from the previous round: not a duplicate
			}
		}
		round.SortStable()
		// The late user's duplicate, 500 ms after its original but sent
		// after the rest of the round.
		round = append(round, logmodel.Entry{Time: start.Add(500 * time.Millisecond), User: "late", Statement: stmt(r, 7)})
		log = append(log, round...)
	}
	for i := range log {
		log[i].Seq = int64(i)
	}

	run := func(p *Sharded) (logmodel.Log, int) {
		var out logmodel.Log
		peak := 0
		for _, e := range log {
			emitted, err := p.Add(e)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, emitted...)
			peak = max(peak, len(p.shards[0].lastSeen))
		}
		return append(out, p.Close()...), peak
	}
	unpruned := serial(Config{})
	unpruned.shards[0].dedupPruned = len(log) // never reaches the prune threshold
	want, slots := run(unpruned)
	pruned := serial(Config{})
	got, peak := run(pruned)

	if want := (users*5 + 1) * rounds; slots != want {
		t.Fatalf("unpruned window holds %d slots, want every distinct pair (%d)", slots, want)
	}
	if peak > 2*(users*6+1)+minDedupPrune {
		t.Fatalf("dedup window peaked at %d slots of %d distinct pairs", peak, slots)
	}
	if want := (users + 1) * rounds; unpruned.Stats().Duplicates != want || pruned.Stats().Duplicates != want {
		t.Fatalf("duplicates: unpruned %d, pruned %d, want %d", unpruned.Stats().Duplicates, pruned.Stats().Duplicates, want)
	}
	same := func(name string, got, want logmodel.Log) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s emitted %d entries, unpruned %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s entry %d: %+v, unpruned %+v", name, i, got[i], want[i])
			}
		}
	}
	same("pruned engine", got, want)
	// RunSharded sorts its output by time; the per-Add output is in
	// session-close order.
	ran, st, err := RunSharded(log, ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append(logmodel.Log(nil), want...)
	sorted.SortStable()
	same("RunSharded", ran, sorted)
	if !reflect.DeepEqual(st, unpruned.Stats()) || !reflect.DeepEqual(pruned.Stats(), unpruned.Stats()) {
		t.Fatalf("stats: RunSharded %+v, pruned %+v, unpruned %+v", st, pruned.Stats(), unpruned.Stats())
	}
	sharded, sst, err := RunSharded(log, ShardedConfig{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, mw := statementMultiset(sharded), statementMultiset(want)
	if len(ms) != len(mw) || sst.Duplicates != st.Duplicates || sst.Out != st.Out {
		t.Fatalf("RunSharded: %d distinct out, %d duplicates; unpruned %d, %d", len(ms), sst.Duplicates, len(mw), st.Duplicates)
	}
	for s, n := range mw {
		if ms[s] != n {
			t.Fatalf("RunSharded statement %q: %d, unpruned %d", s, ms[s], n)
		}
	}
}
