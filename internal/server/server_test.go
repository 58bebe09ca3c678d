package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// waitDrained waits until the drains have taken every queued entry.
func waitDrained(t *testing.T, s *Server, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.qDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drainer never picked up %s", what)
		}
		time.Sleep(time.Millisecond)
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
// boundary: a workload ingested over HTTP in chunks to an 8-shard daemon
// must yield the same duplicate count, cleaned-statement multiset,
// distinct-user count (on /report and /toplist) and /clusters (at 0.9 and
// 0.5) as the batch pipeline. The generator's log holds one or two sessions
// open at a time; the retimed scale-1 log (denseLog) holds over a hundred.
func TestIngestMatchesBatchPipeline(t *testing.T) {
	sparse, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	sparse.SortStable()
	for _, c := range []struct {
		name             string
		log              logmodel.Log
		minOpenHighWater int
	}{
		{"scale 0.2", sparse, 0},
		{"dense", denseLog(), 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := c.log
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
			feedChunks(t, ts.URL, log)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Fatal(err)
			}

			var rp ReportPayload
			getJSON(t, ts.URL+"/report", &rp)
			var tp ToplistPayload
			getJSON(t, ts.URL+"/toplist?k=1", &tp)
			if rp.Stream.In != len(log) {
				t.Fatalf("ingested %d entries, want %d", rp.Stream.In, len(log))
			}
			if rp.Stream.Duplicates != batch.Dedup.Removed {
				t.Errorf("duplicates: service %d, batch %d", rp.Stream.Duplicates, batch.Dedup.Removed)
			}
			want := batch.Report.DistinctUsers
			if rp.Report.DistinctUsers != want || tp.DistinctUsersEstimate != int64(want) {
				t.Errorf("distinct users: /report %d, /toplist %d, batch %d", rp.Report.DistinctUsers, tp.DistinctUsersEstimate, want)
			}
			if hw := rp.Stream.OpenSessionsHighWater; hw < c.minOpenHighWater {
				t.Errorf("at most %d sessions open at once, want at least %d", hw, c.minOpenHighWater)
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
			for _, th := range []float64{0.9, 0.5} {
				var cp ClustersPayload
				getJSON(t, fmt.Sprintf("%s/clusters?threshold=%g&top=1000000", ts.URL, th), &cp)
				requireBatchClusters(t, fmt.Sprintf("threshold %g", th), cp, batchClusters(t, batch.Clean, th))
			}
		})
	}
}

// TestReportMatchesBatchExport pins a drained daemon's /report to the batch
// export of the same log: every template row field the engine tracks, and
// every report count, at one shard and at eight, on the scale-1 generator
// logs of seeds 1–3.
func TestReportMatchesBatchExport(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := workload.DefaultConfig()
				cfg.Seed = seed
				log, _ := workload.Generate(cfg)
				log.SortStable()
				res, err := core.Run(log, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				want := core.Export(res, 0)

				s, ts := newTestServer(t, Config{Stream: stream.ShardedConfig{Shards: shards}, QueueSize: len(log)})
				feedChunks(t, ts.URL, log)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err = s.Close(ctx)
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				var got ReportPayload
				getJSON(t, ts.URL+"/report?top=1000000", &got)
				requireExportMatches(t, fmt.Sprintf("seed %d", seed), got.Report, got.Templates, want)
			}
		})
	}
}

// requireExportMatches compares a streaming report and its template rows
// with the batch export on every field the engine tracks.
func requireExportMatches(t *testing.T, name string, gotReport core.ReportJSON, gotRows []core.TemplateJSON, want core.ExportDoc) {
	t.Helper()
	counts := func(r core.ReportJSON) [10]int {
		return [10]int{r.SizeOriginal, r.CountSelect, r.SizeAfterDedup, r.DuplicatesFound, r.FinalSize,
			r.CountTemplates, r.MaxTemplateFreq, r.SWSTemplates, r.SWSQueries, r.DistinctUsers}
	}
	if g, w := counts(gotReport), counts(want.Report); g != w {
		t.Errorf("%s: report counts %v, batch %v", name, g, w)
	}
	instances := func(r core.ReportJSON) map[string]int {
		m := map[string]int{}
		for _, a := range r.Antipatterns {
			m[a.Kind] = a.Instances
		}
		return m
	}
	if g, w := instances(gotReport), instances(want.Report); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: instances per kind %v, batch %v", name, g, w)
	}
	if len(gotRows) != len(want.Templates) {
		t.Fatalf("%s: %d template rows, batch %d", name, len(gotRows), len(want.Templates))
	}
	anti := 0
	for i, w := range want.Templates {
		w.Example = ""
		if gotRows[i] != w {
			t.Errorf("%s: template row %d:\n got %+v\nwant %+v", name, i, gotRows[i], w)
		}
		if w.Antipattern {
			anti++
		}
	}
	if anti == 0 {
		t.Errorf("%s: batch marks no template antipattern; the comparison shows nothing", name)
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
	// Entry 0 opens a session; entry 1, three gaps later, closes it and
	// forces the drainer into the gated Emit. With the drainer wedged,
	// entry 2 occupies the single queue slot and entry 3 must bounce. The queue holds one batch, so entry 1 is only
	// sent once entry 0 has left it: until then a 429 for entry 1 would be
	// correct.
	postIngest(t, ts.URL, bytes.NewBufferString(line(0, base)))
	waitDrained(t, s, "the session-opening entry")
	postIngest(t, ts.URL, bytes.NewBufferString(line(1, base.Add(3*time.Minute))))

	// Wait until the drainer is actually blocked in Emit (queue drained).
	waitDrained(t, s, "the session-closing entry")

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
// the shard locks and the global watermark), and the barrier between rounds
// bounds the cross-client skew the per-shard ordering contract requires.
// Run with -race.
func TestConcurrentIngestGracefulShutdown(t *testing.T) {
	const (
		clients = 8
		rounds  = 30
	)
	var mu sync.Mutex
	var emitted logmodel.Log
	s, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Shards: 4},
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

// TestNewRefusesNegativeSessionGap: a stream that never closes a session on
// silence holds the whole log, so -gap below zero stops the daemon at start,
// before any entry could be rejected as out of order.
func TestNewRefusesNegativeSessionGap(t *testing.T) {
	_, err := New(Config{Stream: stream.ShardedConfig{Config: stream.Config{SessionGap: -time.Second}}})
	if err == nil || !strings.Contains(err.Error(), "-1s") {
		t.Errorf("New(SessionGap: -1s): err = %v, want a refusal naming -1s", err)
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
