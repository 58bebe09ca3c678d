package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

// crash simulates a SIGKILL for test purposes: the process vanishes with no
// final snapshot and no engine flush — recovery must come from the journal
// alone. (Queues are closed and drained only so the goroutines exit; the
// engine they fed is abandoned, exactly as a killed process's memory is.)
func (s *Server) crash() {
	s.closeMu.Lock()
	s.closed.Store(true)
	s.closeMu.Unlock()
	close(s.snapStop)
	s.ingestWG.Wait()
	for _, q := range s.queues {
		close(q)
	}
	s.drainWG.Wait()
	s.snapWG.Wait()
	if s.jw != nil {
		// A SIGKILLed process still leaves its buffered writes in the OS page
		// cache; Close flushes, which models the same survival.
		s.jw.Close()
	}
}

func durableConfig(dir string) Config {
	return Config{
		Stream:           stream.ShardedConfig{Shards: 4, SweepEvery: 16},
		DataDir:          dir,
		Fsync:            journal.FsyncNever, // process-kill durability needs no fsync
		SnapshotInterval: -1,                 // tests trigger snapshots explicitly
	}
}

// comparableReport strips the fields that cannot be equal across runs for
// trivial reasons (wall clock, build stamp) so the rest must match exactly.
// Valid only for strictly-fed runs: with concurrent shard drains, the global
// watermark can run ahead of a lagging queue and a sweep may close a session
// the sequential order would have kept open, so session-derived numbers are
// only deterministic when every entry is applied before the next is sent.
func comparableReport(s *Server) ReportPayload {
	p := s.Report(10)
	p.Version = ""
	p.UptimeSeconds = 0
	p.Report.DurationNS = 0
	p.Stream.OpenSessionsHighWater = 0
	return p
}

// addDriven is the subset of the report that is deterministic even under
// concurrent drains: everything computed at Add time (arrival counting,
// per-shard dedup, template aggregation) before sessionization's
// sweep-timing races can matter.
type addDriven struct {
	In, Selects, Duplicates                                                                     int
	SizeOriginal, CountSelect, SizeAfterDedup, DuplicatesFound, CountTemplates, MaxTemplateFreq int
	Templates                                                                                   []string
}

func addDrivenSummary(s *Server) addDriven {
	p := s.Report(10)
	d := addDriven{
		In: p.Stream.In, Selects: p.Stream.Selects, Duplicates: p.Stream.Duplicates,
		SizeOriginal: p.Report.SizeOriginal, CountSelect: p.Report.CountSelect,
		SizeAfterDedup: p.Report.SizeAfterDedup, DuplicatesFound: p.Report.DuplicatesFound,
		CountTemplates: p.Report.CountTemplates, MaxTemplateFreq: p.Report.MaxTemplateFreq,
	}
	for _, tm := range p.Templates {
		d.Templates = append(d.Templates, fmt.Sprintf("%x freq=%d users=%d", tm.Fingerprint, tm.Frequency, tm.UserPopularity))
	}
	return d
}

func feedChunks(t *testing.T, url string, log logmodel.Log) {
	t.Helper()
	const chunk = 64
	for i := 0; i < len(log); i += chunk {
		end := i + chunk
		if end > len(log) {
			end = len(log)
		}
		postIngest(t, url, ndjsonBody(log[i:end]))
	}
}

// feedStrict posts one entry at a time and waits for it to be applied before
// sending the next, so every run applies the feed in the identical global
// order — the precondition for full-report equality (see comparableReport).
func feedStrict(t *testing.T, s *Server, url string, log logmodel.Log) {
	t.Helper()
	for i := range log {
		postIngest(t, url, ndjsonBody(log[i:i+1]))
		waitApplied(t, s)
	}
}

// waitApplied waits until the engine has applied every acknowledged entry:
// an ingest is acknowledged once journaled, and applied asynchronously.
func waitApplied(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("acknowledged entries never applied")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestKillAndReplay is the PR's acceptance property: SIGKILL the daemon mid-
// ingest, restart it on the same data directory, finish the feed — the final
// report (counts, stream stats, top templates) must equal an uninterrupted
// run's, because every acknowledged entry was journaled before its request
// was acknowledged. Strict feeding pins the apply order, so the whole report
// must match, sessionization included.
func TestKillAndReplay(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()

	// Uninterrupted reference run.
	ref, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	feedStrict(t, ref, refTS.URL, log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ref.Close(ctx); err != nil {
		t.Fatal(err)
	}
	want := comparableReport(ref)
	refTS.Close()

	// Crashed run: feed half, kill, restart on the same directory, feed the
	// rest.
	dir := t.TempDir()
	half := len(log) / 2
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	feedStrict(t, s1, ts1.URL, log[:half])
	ts1.Close()
	s1.crash()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Replayed() != half {
		t.Errorf("replayed %d entries after crash, want %d", s2.Replayed(), half)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	feedStrict(t, s2, ts2.URL, log[half:])
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got := comparableReport(s2)

	wantJSON, _ := json.MarshalIndent(want, "", " ")
	gotJSON, _ := json.MarshalIndent(got, "", " ")
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("recovered report diverged from uninterrupted run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestKillAndReplayConcurrent is the same crash-recovery property under
// realistic chunked ingestion, where concurrent shard drains make
// session-boundary stats timing-dependent: every Add-driven number (arrival
// counts, dedup, templates) must still converge exactly.
func TestKillAndReplayConcurrent(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()

	ref, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	feedChunks(t, refTS.URL, log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ref.Close(ctx); err != nil {
		t.Fatal(err)
	}
	want := addDrivenSummary(ref)
	refTS.Close()

	dir := t.TempDir()
	half := len(log) / 2
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	feedChunks(t, ts1.URL, log[:half])
	ts1.Close()
	s1.crash()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Replayed() != half {
		t.Errorf("replayed %d entries after crash, want %d", s2.Replayed(), half)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	feedChunks(t, ts2.URL, log[half:])
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := addDrivenSummary(s2); !reflect.DeepEqual(got, want) {
		t.Errorf("add-driven stats diverged after crash recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotSkipsReplayedPrefix pins the checkpoint contract: after a
// snapshot, a restart replays only the journal tail past it, and still
// converges to the uninterrupted report.
func TestSnapshotSkipsReplayedPrefix(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()
	half, tail := len(log)/2, len(log)*3/4

	ref, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	feedStrict(t, ref, refTS.URL, log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ref.Close(ctx); err != nil {
		t.Fatal(err)
	}
	want := comparableReport(ref)
	refTS.Close()

	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SegmentBytes = 4096 // several rotations, so truncation is visible
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	feedStrict(t, s1, ts1.URL, log[:half])
	if err := s1.takeSnapshot(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	segsAfterSnap := s1.jw.Segments()
	feedStrict(t, s1, ts1.URL, log[half:tail])
	ts1.Close()
	s1.crash()

	if segsAfterSnap > 2 {
		t.Errorf("journal kept %d segments after a covering snapshot, want <= 2", segsAfterSnap)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v (err=%v), want exactly one", snaps, err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Replayed() != tail-half {
		t.Errorf("replayed %d entries, want only the %d past the snapshot", s2.Replayed(), tail-half)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	feedStrict(t, s2, ts2.URL, log[tail:])
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got := comparableReport(s2)

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("snapshot+replay report diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestGracefulRestartUsesFinalSnapshot pins the clean-shutdown path: Close
// writes a covering snapshot, so the next start replays nothing.
func TestGracefulRestartUsesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	feedChunks(t, ts1.URL, logmodel.Log{
		{Time: base, User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1"},
		{Time: base.Add(time.Second), User: "bob", Statement: "SELECT age FROM Employees WHERE id = 2"},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.crash()
	if s2.Replayed() != 0 {
		t.Errorf("replayed %d entries after graceful shutdown, want 0 (snapshot covers all)", s2.Replayed())
	}
	if st := s2.Engine().Stats(); st.In != 2 {
		t.Errorf("restored engine saw %d entries, want 2", st.In)
	}
}

// TestRestoreRejectsShardMismatch: restarting with a different shard count
// must fail loudly instead of scattering restored state across the wrong
// partitions.
func TestRestoreRejectsShardMismatch(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postIngest(t, ts1.URL, ndjsonBody(logmodel.Log{{
		Time: time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC),
		User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1",
	}}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	cfg := durableConfig(dir)
	cfg.Stream.Shards = 8
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("New with mismatched shard count: err=%v, want shard-mismatch error", err)
	}
}

// TestCloseIngestRace hammers Close against concurrent handleIngest calls.
// Before beginIngest, the handler did ingestWG.Add(1) and only then checked
// closed — racing Close's Wait up from zero, the documented WaitGroup misuse
// (a panic under -race). Run with -race.
func TestCloseIngestRace(t *testing.T) {
	line := `{"time":"2003-06-01T12:00:00Z","user":"u","statement":"SELECT name FROM Employees WHERE id = 1"}` + "\n"
	for iter := 0; iter < 30; iter++ {
		s, err := New(Config{Stream: stream.ShardedConfig{Shards: 2}})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 5; j++ {
					req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(line))
					s.handleIngest(httptest.NewRecorder(), req)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestTSVLineNumbers pins the reported 1-based line on the TSV error paths:
// blank lines count, so the number matches the client's own payload, not the
// count of parsed entries.
func TestTSVLineNumbers(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	tsvLine := func(i int, tm time.Time) string {
		cols := []string{"name", "age"}
		return fmt.Sprintf("%s\tu\t\t\tSELECT %s FROM Employees WHERE id = %d\n",
			tm.UTC().Format(logmodel.TimeFormat), cols[i%2], i)
	}

	// 400 path: a parse failure after blank lines reports the real line.
	_, ts := newTestServer(t, Config{})
	body := tsvLine(0, base) + "\n\n" + "garbage line\n"
	resp, err := http.Post(ts.URL+"/ingest?format=tsv", "text/tab-separated-values",
		bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ir.Line != 4 || ir.Accepted != 1 {
		t.Errorf("tsv parse error: status %d, %+v; want 400 at line 4 with 1 accepted", resp.StatusCode, ir)
	}

	// 429 path: wedge the single drainer in a gated Emit (as in
	// TestIngestBackpressure), fill the one queue slot, then send a TSV body
	// whose rejected entry sits after blank lines.
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	s, ts2 := newTestServer(t, Config{
		Stream:    stream.ShardedConfig{Shards: 1, Config: stream.Config{SessionGap: time.Minute}},
		QueueSize: 1,
		Emit:      func(logmodel.Log) { <-gate },
	})
	post := func(body string) (*http.Response, ingestResponse) {
		resp, err := http.Post(ts2.URL+"/ingest?format=tsv", "text/tab-separated-values",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var ir ingestResponse
		json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		return resp, ir
	}
	post(tsvLine(0, base))
	post(tsvLine(1, base.Add(3*time.Minute))) // closes the session, wedges Emit
	deadline := time.Now().Add(5 * time.Second)
	for s.qDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainer never wedged in Emit")
		}
		time.Sleep(time.Millisecond)
	}
	post(tsvLine(2, base.Add(3*time.Minute+time.Second))) // occupies the slot

	resp2, ir2 := post("\n\n" + tsvLine(3, base.Add(3*time.Minute+2*time.Second)))
	if resp2.StatusCode != http.StatusTooManyRequests || ir2.Line != 3 || ir2.Accepted != 0 {
		t.Errorf("tsv queue-full: status %d, %+v; want 429 at line 3", resp2.StatusCode, ir2)
	}
	once.Do(func() { close(gate) })
}

// TestJournalSurvivesTornTail: a torn final frame (half-written at the kill)
// must not block recovery of the intact prefix.
func TestJournalSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	var log logmodel.Log
	for i := 0; i < 10; i++ {
		log = append(log, logmodel.Entry{
			Time: base.Add(time.Duration(i) * time.Second), User: "alice",
			Statement: fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", i),
		})
	}
	feedChunks(t, ts1.URL, log)
	ts1.Close()
	s1.crash()

	// Tear the journal's tail: chop bytes off the last segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v (err=%v)", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.crash()
	if s2.Replayed() != len(log)-1 {
		t.Errorf("replayed %d entries past a torn tail, want %d (all intact frames)", s2.Replayed(), len(log)-1)
	}
}
