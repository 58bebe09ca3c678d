package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/core"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

// TestClustersEndpoint ingests a SkyServer-mix workload, drains, and checks
// that /clusters reports a non-empty clustering with working counters.
func TestClustersEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.05))
	ir := postIngest(t, ts.URL, ndjsonBody(log))
	if ir.Accepted != len(log) {
		t.Fatalf("accepted %d, want %d", ir.Accepted, len(log))
	}

	// Close flushes every open session, so all cleaned entries have been
	// observed by the box registry.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	var cp ClustersPayload
	getJSON(t, ts.URL+"/clusters?top=5", &cp)
	if cp.DistinctBoxes == 0 || cp.TotalQueries == 0 {
		t.Fatalf("empty box registry: %+v", cp)
	}
	if cp.ClusterCount == 0 || len(cp.Clusters) == 0 {
		t.Fatalf("no clusters: %+v", cp)
	}
	if cp.Threshold != defaultClusterThreshold {
		t.Errorf("default threshold %g, want %g", cp.Threshold, defaultClusterThreshold)
	}
	if len(cp.Clusters) > 5 {
		t.Errorf("top=5 returned %d clusters", len(cp.Clusters))
	}
	if cp.Clusters[0].Example == "" || cp.Clusters[0].Queries == 0 {
		t.Errorf("top cluster lacks example/weight: %+v", cp.Clusters[0])
	}
	var total int64
	for _, c := range cp.Clusters {
		total += c.Queries
	}
	if total > cp.TotalQueries {
		t.Errorf("cluster weights %d exceed total queries %d", total, cp.TotalQueries)
	}

	// A per-request threshold override must be honored; threshold 1 merges
	// only overlapping regions, so the count can only grow or stay equal
	// relative to 0.9... it is in fact a different clustering; just check
	// the override is echoed and the result is still non-empty.
	var cp1 ClustersPayload
	getJSON(t, ts.URL+"/clusters?threshold=0.5", &cp1)
	if cp1.Threshold != 0.5 || cp1.ClusterCount == 0 {
		t.Errorf("threshold override: %+v", cp1)
	}

	// Metrics surface the clustering work.
	if s.mBoxesClustered.Value() == 0 {
		t.Error("cluster_boxes_clustered_total not incremented")
	}

	for _, v := range []string{"2", "NaN"} {
		resp, err := http.Get(ts.URL + "/clusters?threshold=" + v)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("threshold=%s: status %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestClustersDisabled checks the opt-out: no registry, 404 on the route.
func TestClustersDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{ClustersDisabled: true})
	if s.boxes != nil {
		t.Fatal("registry allocated despite ClustersDisabled")
	}
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	postIngest(t, ts.URL, ndjsonBody(logmodel.Log{
		{Time: base, User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1"},
	}))
	resp, err := http.Get(ts.URL + "/clusters")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if cp := s.Clusters(0.9, 10); cp.DistinctBoxes != 0 || cp.ClusterCount != 0 || len(cp.Clusters) != 0 {
		t.Errorf("Clusters with clustering disabled: %+v", cp)
	}
}

// TestClustersKeepCollidingBoxesApart: no two statements of a case are at
// overlap distance 0, so the table must hold one box for each, as batch
// clustering does. The first two cases are pairs a formatted signature
// confused; in the last, an empty interval overlaps nothing, not even a copy
// of itself.
func TestClustersKeepCollidingBoxesApart(t *testing.T) {
	for _, stmts := range [][]string{
		{"SELECT * FROM photoobj WHERE ra = '1:2'", "SELECT * FROM photoobj WHERE ra BETWEEN 1 AND 2"},
		{"SELECT * FROM [a,b]", "SELECT * FROM a, b"},
		{"SELECT * FROM photoobj WHERE ra BETWEEN 5 AND 3", "SELECT * FROM photoobj WHERE ra BETWEEN 5 AND 3", "SELECT * FROM photoobj WHERE ra BETWEEN 5 AND 3"},
	} {
		base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
		var log logmodel.Log
		for i, stmt := range stmts {
			log = append(log, logmodel.Entry{Time: base.Add(time.Duration(i) * time.Minute), User: []string{"alice", "bob"}[i%2], Statement: stmt})
		}
		n := len(stmts)
		batch, err := core.Run(log, core.Config{ClusterThreshold: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Report.ClusterCount != n {
			t.Fatalf("%q: batch made %d clusters, want %d", stmts, batch.Report.ClusterCount, n)
		}
		s, ts := newTestServer(t, Config{})
		postIngest(t, ts.URL, ndjsonBody(log))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		var cp ClustersPayload
		getJSON(t, ts.URL+"/clusters", &cp)
		if cp.TotalQueries != int64(n) || cp.DistinctBoxes != n || cp.ClusterCount != n {
			t.Errorf("%q: %d queries, %d distinct boxes, %d clusters; want %d of each", stmts, cp.TotalQueries, cp.DistinctBoxes, cp.ClusterCount, n)
		}
	}
}

// batchClusters is the /clusters document that batch clustering gives the
// clean log: overlap.ClusterInfos over its entries in (Time, Seq) order,
// each cluster with its distinct boxes, its queries and the statement of its
// first entry. Its clusters come in founding order.
func batchClusters(t *testing.T, clean logmodel.Log, threshold float64) ClustersPayload {
	t.Helper()
	l := clean.Clone()
	l.SortStable()
	parsed, _ := parsedlog.Parse(l)
	infos := make([]*skeleton.Info, len(parsed))
	boxOf := make([]int, len(parsed))
	var set overlap.BoxSet
	for i, pe := range parsed {
		if pe.Info == nil {
			t.Fatalf("clean entry %d is not a SELECT: %q", i, pe.Statement)
		}
		infos[i] = pe.Info
		b := overlap.FlatFromInfo(pe.Info)
		if boxOf[i] = set.Find(&b); boxOf[i] < 0 {
			boxOf[i] = set.Add(b)
		}
	}
	clusters := overlap.ClusterInfos(infos, threshold, 1, nil)
	p := ClustersPayload{Threshold: threshold, DistinctBoxes: set.Len(), TotalQueries: int64(len(l)), ClusterCount: len(clusters)}
	for _, c := range clusters {
		boxes := map[int]bool{}
		for _, m := range c.Members {
			boxes[boxOf[m]] = true
		}
		p.Clusters = append(p.Clusters, ClusterInfo{Size: len(boxes), Queries: int64(len(c.Members)), Example: l[c.Representative].Statement})
	}
	return p
}

// requireBatchClusters checks a /clusters document read with a top that
// covers every cluster against batchClusters: the counts, and each
// cluster's size, queries and example, compared as multisets.
func requireBatchClusters(t *testing.T, what string, got, want ClustersPayload) {
	t.Helper()
	if got.ClusterCount != want.ClusterCount || got.DistinctBoxes != want.DistinctBoxes || got.TotalQueries != want.TotalQueries {
		t.Fatalf("%s: %d clusters over %d boxes and %d queries; batch %d over %d and %d",
			what, got.ClusterCount, got.DistinctBoxes, got.TotalQueries, want.ClusterCount, want.DistinctBoxes, want.TotalQueries)
	}
	order := func(c []ClusterInfo) []ClusterInfo {
		c = slices.Clone(c)
		slices.SortFunc(c, func(a, b ClusterInfo) int {
			return cmp.Or(cmp.Compare(a.Queries, b.Queries), cmp.Compare(a.Size, b.Size), strings.Compare(a.Example, b.Example))
		})
		return c
	}
	g, w := order(got.Clusters), order(want.Clusters)
	if len(g) != len(w) {
		t.Fatalf("%s: %d clusters listed, batch %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: cluster %+v, batch %+v", what, g[i], w[i])
		}
	}
}

// TestClustersIndependentOfShardCount: fed a log in order, in 500-entry
// requests over one connection, a one-shard and an eight-shard daemon serve
// byte-identical /clusters documents at 0.9 and 0.5, equal to the batch
// clustering of the clean log. The shards emit in different interleavings,
// and a session can close long after later sessions have; the table orders
// its boxes by first occurrence, not by arrival.
func TestClustersIndependentOfShardCount(t *testing.T) {
	scale2, _ := workload.Generate(workload.DefaultConfig().Scale(2))
	scale2.SortStable()
	for _, c := range []struct {
		name string
		log  logmodel.Log
	}{
		{"scale 2", scale2},
		{"dense", denseLog()},
	} {
		t.Run(c.name, func(t *testing.T) {
			batch, err := core.Run(c.log, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var first [][]byte
			for _, shards := range []int{1, 8} {
				// Every request fits the queues, so none is refused.
				s, ts := newTestServer(t, Config{Stream: stream.ShardedConfig{Shards: shards}, QueueSize: len(c.log)})
				for i := 0; i < len(c.log); i += 500 {
					postIngest(t, ts.URL, ndjsonBody(c.log[i:min(i+500, len(c.log))]))
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := s.Close(ctx); err != nil {
					t.Fatal(err)
				}
				cancel()
				for k, th := range []float64{0.9, 0.5} {
					body := getBody(t, fmt.Sprintf("%s/clusters?threshold=%g&top=1000000", ts.URL, th))
					var cp ClustersPayload
					if err := json.Unmarshal(body, &cp); err != nil {
						t.Fatal(err)
					}
					requireBatchClusters(t, fmt.Sprintf("%d shards, threshold %g", shards, th), cp, batchClusters(t, batch.Clean, th))
					t.Logf("%d shards, threshold %g: %d clusters over %d boxes", shards, th, cp.ClusterCount, cp.DistinctBoxes)
					if len(first) <= k {
						first = append(first, body)
					} else if !bytes.Equal(body, first[k]) {
						t.Errorf("threshold %g: %d shards serve a different /clusters than 1 shard", th, shards)
					}
				}
			}
		})
	}
}

// TestBoxTableOrderIndependent feeds the batches an eight-shard daemon
// emitted to fresh tables in other orders: reversed, shard by shard, and
// shard by shard in reverse shard order. Every order gives one payload.
func TestBoxTableOrderIndependent(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	log.SortStable()
	var mu sync.Mutex
	var emitted []logmodel.Log
	s, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Shards: 8},
		Emit: func(l logmodel.Log) {
			mu.Lock()
			emitted = append(emitted, slices.Clone(l))
			mu.Unlock()
		},
	})
	feedChunks(t, ts.URL, log)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Close's final flush emits every shard's open sessions in one batch;
	// split each batch by shard so a shard's batches can move as a unit.
	var batches []logmodel.Log
	byShard := make([][]logmodel.Log, s.eng.NumShards())
	for _, l := range emitted {
		parts := map[int]logmodel.Log{}
		var shards []int
		for _, e := range l {
			i := s.eng.ShardFor(e.User)
			if parts[i] == nil {
				shards = append(shards, i)
			}
			parts[i] = append(parts[i], e)
		}
		for _, i := range shards {
			batches = append(batches, parts[i])
			byShard[i] = append(byShard[i], parts[i])
		}
	}
	reversed := slices.Clone(batches)
	slices.Reverse(reversed)
	shardMajor := slices.Concat(byShard...)
	slices.Reverse(byShard)
	shardMajorReversed := slices.Concat(byShard...)

	const all = 1 << 30
	parser := parsedlog.NewParser()
	for name, order := range map[string][]logmodel.Log{
		"reversed":                        reversed,
		"shard by shard":                  shardMajor,
		"shard by shard, shards reversed": shardMajorReversed,
	} {
		r, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range order {
			pl, _ := parser.Parse(l)
			r.observeBoxes(pl)
		}
		for _, th := range []float64{0.9, 0.5} {
			if got, want := r.Clusters(th, all), s.Clusters(th, all); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, threshold %g: %d clusters over %d boxes, as emitted %d over %d",
					name, th, got.ClusterCount, got.DistinctBoxes, want.ClusterCount, want.DistinctBoxes)
			}
		}
		r.Close(ctx)
	}
}

// TestClustersDuringIngest reads /clusters while the shards' drains add
// boxes to their registries: the race detector checks that no read meets a
// write.
func TestClustersDuringIngest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.05))
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			if cp := s.Clusters(0.9, 3); cp.ClusterCount > cp.DistinctBoxes {
				t.Errorf("%d clusters over %d distinct boxes", cp.ClusterCount, cp.DistinctBoxes)
				return
			}
		}
	}()
	for i := 0; i < len(log); i += 50 {
		postIngest(t, ts.URL, ndjsonBody(log[i:min(i+50, len(log))]))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	close(done)
	<-readerDone
	if cp := s.Clusters(0.9, 3); cp.DistinctBoxes == 0 || cp.ClusterCount == 0 {
		t.Fatalf("empty clustering after ingest: %+v", cp)
	}
}
