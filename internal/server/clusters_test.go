package server

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
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

// TestNewRefusesClusterThreshold: a default /clusters threshold outside
// (0, 1] is a configuration error caught at startup, the same range
// ?threshold= is held to. (0 selects the default; TestClustersEndpoint
// covers it.)
func TestNewRefusesClusterThreshold(t *testing.T) {
	for _, th := range []float64{2, -1, math.NaN()} {
		if _, err := New(Config{ClusterThreshold: th}); err == nil || !strings.Contains(err.Error(), "cluster threshold") {
			t.Errorf("New(ClusterThreshold: %g): err = %v, want cluster-threshold error", th, err)
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
}

// TestClustersKeepCollidingBoxesApart: each pair has overlap 0, so the
// registry must hold two distinct boxes for it, not one.
func TestClustersKeepCollidingBoxesApart(t *testing.T) {
	for _, pair := range [][2]string{
		{"SELECT * FROM photoobj WHERE ra = '1:2'", "SELECT * FROM photoobj WHERE ra BETWEEN 1 AND 2"},
		{"SELECT * FROM [a,b]", "SELECT * FROM a, b"},
	} {
		s, ts := newTestServer(t, Config{})
		base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
		postIngest(t, ts.URL, ndjsonBody(logmodel.Log{
			{Time: base, User: "alice", Statement: pair[0]},
			{Time: base.Add(time.Minute), User: "alice", Statement: pair[1]},
		}))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		var cp ClustersPayload
		getJSON(t, ts.URL+"/clusters", &cp)
		if cp.TotalQueries != 2 || cp.DistinctBoxes != 2 || cp.ClusterCount != 2 {
			t.Errorf("%q: %d queries, %d distinct boxes, %d clusters; want 2, 2, 2", pair, cp.TotalQueries, cp.DistinctBoxes, cp.ClusterCount)
		}
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
