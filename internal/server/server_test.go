package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/core"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func ndjsonBody(l logmodel.Log) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range l {
		rows := e.Rows
		enc.Encode(map[string]any{
			"time":      e.Time.UTC().Format(time.RFC3339Nano),
			"user":      e.User,
			"session":   e.Session,
			"rows":      rows,
			"statement": e.Statement,
		})
	}
	return &buf
}

func postIngest(t *testing.T, url string, body *bytes.Buffer) ingestResponse {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %+v", resp.StatusCode, ir)
	}
	return ir
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestIngestReportHealthz is the end-to-end happy path: ingest a small log
// over HTTP, close, and check the report and health documents.
func TestIngestReportHealthz(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	log := logmodel.Log{
		{Time: base, User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1"},
		{Time: base.Add(time.Second), User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1"}, // duplicate
		{Time: base.Add(2 * time.Second), User: "bob", Statement: "SELECT age FROM Employees WHERE id = 2"},
	}
	var mu sync.Mutex
	var emitted logmodel.Log
	s, ts := newTestServer(t, Config{
		Emit: func(l logmodel.Log) {
			mu.Lock()
			emitted = append(emitted, l...)
			mu.Unlock()
		},
	})

	ir := postIngest(t, ts.URL, ndjsonBody(log))
	if ir.Accepted != 3 {
		t.Fatalf("accepted %d, want 3", ir.Accepted)
	}

	var h HealthPayload
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Version == "" || h.Shards != s.Engine().NumShards() {
		t.Errorf("healthz: %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	var rp ReportPayload
	getJSON(t, ts.URL+"/report", &rp)
	if rp.Report.SizeOriginal != 3 || rp.Report.DuplicatesFound != 1 || rp.Report.FinalSize != 2 {
		t.Errorf("report: %+v", rp.Report)
	}
	if rp.Stream.In != 3 || rp.Stream.Duplicates != 1 {
		t.Errorf("stream stats: %+v", rp.Stream)
	}
	if len(rp.Templates) == 0 {
		t.Error("no templates in report")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != 2 {
		t.Errorf("emitted %d entries, want 2", len(emitted))
	}

	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "draining" || h.OpenSessions != 0 {
		t.Errorf("healthz after close: %+v", h)
	}
}

// TestIngestMatchesBatchPipeline is the acceptance equivalence at the service
// boundary: a workload ingested over HTTP in chunks must yield the same
// duplicate count and cleaned-statement multiset as the batch pipeline.
func TestIngestMatchesBatchPipeline(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	log.SortStable()
	batch, err := core.Run(log, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var emitted logmodel.Log
	s, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Shards: 8},
		Emit: func(l logmodel.Log) {
			mu.Lock()
			emitted = append(emitted, l...)
			mu.Unlock()
		},
	})

	// Chunked ingest, as a tailer would send it.
	const chunk = 64
	for i := 0; i < len(log); i += chunk {
		end := i + chunk
		if end > len(log) {
			end = len(log)
		}
		postIngest(t, ts.URL, ndjsonBody(log[i:end]))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	st := s.Engine().Stats()
	if st.In != len(log) {
		t.Fatalf("ingested %d entries, want %d", st.In, len(log))
	}
	if st.Duplicates != batch.Dedup.Removed {
		t.Errorf("duplicates: service %d, batch %d", st.Duplicates, batch.Dedup.Removed)
	}
	mu.Lock()
	defer mu.Unlock()
	counts := map[string]int{}
	for _, e := range emitted {
		counts[e.Statement]++
	}
	for _, e := range batch.Clean {
		counts[e.Statement]--
	}
	for stmt, n := range counts {
		if n != 0 {
			t.Fatalf("statement multiset mismatch at %q: off by %d", stmt, n)
		}
	}
}

// TestIngestBackpressure pins the 429 path deterministically: one shard, a
// one-slot queue, and a drainer wedged on a blocking Emit gate. The second
// enqueue must be rejected with 429 and an accurate accepted count — and
// nothing may be lost once the gate opens.
func TestIngestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var emitted logmodel.Log
	s, ts := newTestServer(t, Config{
		Stream:    stream.ShardedConfig{Shards: 1, Config: stream.Config{SessionGap: time.Minute}},
		QueueSize: 1,
		Emit: func(l logmodel.Log) {
			<-gate
			mu.Lock()
			emitted = append(emitted, l...)
			mu.Unlock()
		},
	})

	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	// Alternate skeletons so no two same-template queries share a session —
	// the cleaner would legitimately merge such a run and skew the counts.
	cols := []string{"name", "age"}
	line := func(i int, ts time.Time) string {
		return fmt.Sprintf(`{"time":%q,"user":"u","statement":"SELECT %s FROM Employees WHERE id = %d"}`+"\n",
			ts.UTC().Format(time.RFC3339), cols[i%2], i)
	}
	// Entry 0 opens a session; entry 1 (next session, 2×gap later so even
	// lateness-slack eviction fires) forces the drainer into the gated Emit.
	// With the drainer wedged, entry 2 occupies the single queue slot and
	// entry 3 must bounce.
	postIngest(t, ts.URL, bytes.NewBufferString(line(0, base)))
	postIngest(t, ts.URL, bytes.NewBufferString(line(1, base.Add(3*time.Minute))))

	// Wait until the drainer is actually blocked in Emit (queue drained).
	deadline := time.Now().Add(5 * time.Second)
	for s.qDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainer never picked up the session-closing entry")
		}
		time.Sleep(time.Millisecond)
	}

	postIngest(t, ts.URL, bytes.NewBufferString(line(2, base.Add(3*time.Minute+time.Second))))

	body := bytes.NewBufferString(line(3, base.Add(3*time.Minute+2*time.Second)))
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, ir)
	}
	if ir.Accepted != 0 {
		t.Errorf("accepted %d in rejected request, want 0", ir.Accepted)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	once.Do(func() { close(gate) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Entries 0, 1 and 2 were accepted; 3 was rejected. No accepted entry
	// may be dropped.
	if len(emitted) != 3 {
		t.Errorf("emitted %d entries, want 3 (accepted ones only)", len(emitted))
	}
}

// TestConcurrentIngestGracefulShutdown is the acceptance race test: 8
// concurrent HTTP clients, then a graceful Close — every accepted entry must
// come out. The clients proceed in lockstep rounds with one shared timestamp
// per round: within a round all 8 POST concurrently (racing on the queues,
// the shard locks and the sweep), and the barrier between rounds bounds the
// cross-client skew the per-shard ordering contract requires. Run with -race.
func TestConcurrentIngestGracefulShutdown(t *testing.T) {
	const (
		clients = 8
		rounds  = 30
	)
	var mu sync.Mutex
	var emitted logmodel.Log
	s, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Shards: 4, SweepEvery: 16},
		Emit: func(l logmodel.Log) {
			mu.Lock()
			emitted = append(emitted, l...)
			mu.Unlock()
		},
	})

	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				l := logmodel.Log{{
					Time:      base.Add(time.Duration(r) * 20 * time.Minute), // each round its own session
					User:      fmt.Sprintf("client%02d", c),
					Statement: fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", c*10000+r),
				}}
				postIngest(t, ts.URL, ndjsonBody(l))
			}(c)
		}
		wg.Wait()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	want := clients * rounds
	st := s.Engine().Stats()
	if st.In != want || st.Out != want {
		t.Errorf("stats in=%d out=%d, want both %d", st.In, st.Out, want)
	}
	if st.SessionsEmitted != want {
		t.Errorf("sessions emitted %d, want %d", st.SessionsEmitted, want)
	}
	if n := s.mRejectedOrder.Value(); n != 0 {
		t.Errorf("%d entries rejected as out of order, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != want {
		t.Errorf("emitted %d entries, want %d (graceful shutdown must not drop)", len(emitted), want)
	}
	// After Close, new ingests are refused with 503.
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		bytes.NewBufferString(`{"time":"2003-06-01T00:00:00Z","user":"x","statement":"SELECT 1"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after close: status %d, want 503", resp.StatusCode)
	}
}

// TestIngestTSV exercises the TSV wire format end to end.
func TestIngestTSV(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	log := logmodel.Log{
		{Time: base, User: "alice", Rows: 3, Statement: "SELECT name FROM Employees WHERE id = 1"},
		{Time: base.Add(time.Second), User: "bob", Rows: -1, Statement: "SELECT age FROM Employees WHERE id = 2"},
	}
	var buf bytes.Buffer
	if err := logmodel.WriteTSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/ingest?format=tsv", "text/tab-separated-values", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Accepted != 2 {
		t.Fatalf("tsv ingest: status %d, %+v", resp.StatusCode, ir)
	}
	waitApplied(t, s)
	if st := s.Engine().Stats(); st.In != 2 {
		t.Errorf("engine saw %d entries, want 2", st.In)
	}
}

// TestIngestBadInput covers the 400 and 405 paths.
func TestIngestBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		bytes.NewBufferString("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ir.Line != 1 {
		t.Errorf("bad json: status %d, %+v", resp.StatusCode, ir)
	}

	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson",
		bytes.NewBufferString(`{"time":"2003-06-01T00:00:00Z","user":"u"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing statement: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
}

// TestDebugMuxMounted checks the obs debug surface is reachable through the
// service mux.
func TestDebugMuxMounted(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ingest_requests_total") {
		t.Error("/metrics missing ingest counters")
	}
}
