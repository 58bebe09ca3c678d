// Batched-ingest tests: the per-shard batch dispatch and cross-request group
// commit must be invisible in every observable — reports, toplists, watermark
// state, 429 accounting and crash recovery are pinned against the per-entry
// semantics they replaced.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchSizeEquivalence pins batch-size invariance: the same input fed
// in request bodies of 1, 7, 64 and 600 lines (600 crosses the flushEvery
// staging boundary, so one request spans several flushes) must produce a
// byte-identical report, /toplist document and /clusters documents (at
// thresholds 0.9 and 0.5) and the same watermark, at one shard and at 8.
// Each shard applies its queue in input order and closes sessions on its
// own clock, and the box table orders boxes by first occurrence, so every
// run is fully deterministic — sessionization and clustering included —
// however the drains interleave.
func TestBatchSizeEquivalence(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()

	type docs struct {
		report, toplist, clusters9, clusters5 []byte
		watermark                             time.Time
	}
	run := func(shards, batch int) docs {
		s, ts := newTestServer(t, Config{
			Stream:    stream.ShardedConfig{Shards: shards},
			QueueSize: 4096,
		})
		for i := 0; i < len(log); i += batch {
			end := i + batch
			if end > len(log) {
				end = len(log)
			}
			ir := postIngest(t, ts.URL, ndjsonBody(log[i:end]))
			if ir.Accepted != end-i {
				t.Fatalf("batch %d: accepted %d of %d", batch, ir.Accepted, end-i)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return docs{
			report:    comparableReport(t, s),
			toplist:   getBody(t, ts.URL+"/toplist?k=20"),
			clusters9: getBody(t, ts.URL+"/clusters?threshold=0.9&top=1000000"),
			clusters5: getBody(t, ts.URL+"/clusters?threshold=0.5&top=1000000"),
			watermark: s.eng.Watermark(),
		}
	}

	for _, shards := range []int{1, 8} {
		want := run(shards, 1)
		for _, batch := range []int{7, 64, 600} {
			got := run(shards, batch)
			for _, d := range []struct {
				name      string
				got, want []byte
			}{
				{"report", got.report, want.report},
				{"toplist", got.toplist, want.toplist},
				{"clusters at 0.9", got.clusters9, want.clusters9},
				{"clusters at 0.5", got.clusters5, want.clusters5},
			} {
				if !bytes.Equal(d.got, d.want) {
					t.Errorf("%d shards, batch %d: %s diverged from per-entry feed:\n got %s\nwant %s", shards, batch, d.name, d.got, d.want)
				}
			}
			if !got.watermark.Equal(want.watermark) {
				t.Errorf("%d shards, batch %d: watermark %v, want %v", shards, batch, got.watermark, want.watermark)
			}
		}
	}
}

// TestOneShardReportMatchesEngine pins /report's stream block to the
// engine's own counters: a one-shard daemon applies its queue in input
// order, so once drained its block must equal the Stats of a one-shard
// engine fed the same log — open_sessions_high_water included, which
// comparableReport leaves out.
func TestOneShardReportMatchesEngine(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		cfg := workload.DefaultConfig().Scale(0.5)
		cfg.Seed = seed
		log, _ := workload.Generate(cfg)
		log.SortStable()

		eng := stream.NewSharded(stream.ShardedConfig{Shards: 1})
		for _, e := range log {
			if _, err := eng.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		want, err := json.Marshal(eng.Stats())
		if err != nil {
			t.Fatal(err)
		}

		s, ts := newTestServer(t, Config{Stream: stream.ShardedConfig{Shards: 1}, QueueSize: len(log)})
		feedChunks(t, ts.URL, log)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Close(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Stream stream.Stats `json:"stream"`
		}
		if err := json.Unmarshal(getBody(t, ts.URL+"/report"), &rep); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep.Stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: /report stream block\n got %s\nwant %s", seed, got, want)
		}
	}
}

// TestConcurrentClientsEquivalence feeds the same log through 1, 4 and 8
// concurrent clients (each owning whole shards, so every shard still gets
// its entries in log order) over 4 shards. The report, the toplist and the
// watermark must be identical, sessionization included.
func TestConcurrentClientsEquivalence(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()

	run := func(clients int) ([]byte, []byte, time.Time) {
		s, ts := newTestServer(t, Config{
			Stream:    stream.ShardedConfig{Shards: 4},
			QueueSize: 4096,
		})
		// Partition entries by user so each client's sub-feed is in order.
		parts := make([]logmodel.Log, clients)
		for _, e := range log {
			i := int(s.eng.ShardFor(e.User)) % clients
			parts[i] = append(parts[i], e)
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(part logmodel.Log) {
				defer wg.Done()
				const chunk = 48
				for i := 0; i < len(part); i += chunk {
					end := i + chunk
					if end > len(part) {
						end = len(part)
					}
					postIngest(t, ts.URL, ndjsonBody(part[i:end]))
				}
			}(parts[c])
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return comparableReport(t, s), getBody(t, ts.URL+"/toplist?k=20"), s.eng.Watermark()
	}

	wantReport, wantTop, wantWM := run(1)
	for _, clients := range []int{4, 8} {
		gotReport, gotTop, gotWM := run(clients)
		if !bytes.Equal(gotReport, wantReport) {
			t.Errorf("%d clients: report diverged:\n got %s\nwant %s", clients, gotReport, wantReport)
		}
		if !bytes.Equal(gotTop, wantTop) {
			t.Errorf("%d clients: toplist diverged:\n got %s\nwant %s", clients, gotTop, wantTop)
		}
		if !gotWM.Equal(wantWM) {
			t.Errorf("%d clients: watermark %v, want %v", clients, gotWM, wantWM)
		}
	}
}

// TestQueueFullMidBatchAccounting pins prefix-exact 429 accounting inside one
// request body: when the queue fills mid-batch, the journaled-and-dispatched
// prefix is acknowledged, the failing 1-based line (blank lines included)
// is reported, and a restart replays exactly the acknowledged entries.
func TestQueueFullMidBatchAccounting(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	cfg := durableConfig(dir)
	cfg.Stream = stream.ShardedConfig{Shards: 1, Config: stream.Config{SessionGap: time.Minute}}
	cfg.QueueSize = 2
	cfg.Emit = func(logmodel.Log) { <-gate }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	line := func(i int, tm time.Time) string {
		cols := []string{"name", "age"}
		return fmt.Sprintf(`{"time":%q,"user":"u","statement":"SELECT %s FROM Employees WHERE id = %d"}`+"\n",
			tm.UTC().Format(time.RFC3339), cols[i%2], i)
	}
	// Wedge the single drain in the gated Emit (entry 1 closes entry 0's
	// session), then wait until the queue is empty again.
	postIngest(t, ts.URL, bytes.NewBufferString(line(0, base)))
	postIngest(t, ts.URL, bytes.NewBufferString(line(1, base.Add(3*time.Minute))))
	waitDrained(t, s, "the session-closing entry")

	// One body, four entries across blank lines: entries on lines 1, 2, 4, 5.
	// Two queue slots remain, so lines 1 and 2 are accepted and line 4 is the
	// first failure.
	body := line(2, base.Add(3*time.Minute+time.Second)) +
		line(3, base.Add(3*time.Minute+2*time.Second)) +
		"\n" +
		line(4, base.Add(3*time.Minute+3*time.Second)) +
		line(5, base.Add(3*time.Minute+4*time.Second))
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, ir)
	}
	if ir.Accepted != 2 || ir.Line != 4 {
		t.Errorf("partial batch: accepted %d at line %d, want 2 accepted failing at line 4", ir.Accepted, ir.Line)
	}

	// Unwedge, let everything apply, then crash and restart: the journal must
	// hold exactly the four acknowledged entries.
	once.Do(func() { close(gate) })
	ts.Close()
	s.crash()
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Replayed() != 4 {
		t.Errorf("replayed %d entries, want 4 (the acknowledged prefix only)", s2.Replayed())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s2.Close(ctx)
}

// TestConcurrentBatchedKillAndReplay extends the crash property to the
// batched path under concurrency: 8 goroutines POST chunked bodies through
// per-shard batch dispatch and group commit, the daemon is killed after the
// acks, and a restart must replay every acknowledged entry — converging on
// the same report as an uninterrupted run.
func TestConcurrentBatchedKillAndReplay(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()

	// Uninterrupted reference.
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
	want := comparableReport(t, ref)
	refTS.Close()

	dir := t.TempDir()
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	const clients = 8
	parts := make([]logmodel.Log, clients)
	for _, e := range log {
		i := int(s1.eng.ShardFor(e.User)) % clients
		parts[i] = append(parts[i], e)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(part logmodel.Log) {
			defer wg.Done()
			const chunk = 32
			for i := 0; i < len(part); i += chunk {
				end := i + chunk
				if end > len(part) {
					end = len(part)
				}
				ir := postIngest(t, ts1.URL, ndjsonBody(part[i:end]))
				mu.Lock()
				acked += ir.Accepted
				mu.Unlock()
			}
		}(parts[c])
	}
	wg.Wait()
	ts1.Close()
	s1.crash()
	if acked != len(log) {
		t.Fatalf("acked %d of %d entries before the crash", acked, len(log))
	}

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Replayed() != acked {
		t.Errorf("replayed %d entries, want every acknowledged one (%d)", s2.Replayed(), acked)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := comparableReport(t, s2); !bytes.Equal(got, want) {
		t.Errorf("recovered report diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}
