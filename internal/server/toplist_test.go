package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/sketch"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

// TestToplistEndpoint ingests a workload and checks the heavy-hitter payload:
// ordering, bracket guarantee shape, and the distinct-identity estimate.
func TestToplistEndpoint(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.05))
	log.SortStable()
	s, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Config: stream.Config{Sketches: sketch.Config{TopK: 16}}},
	})
	postIngest(t, ts.URL, ndjsonBody(log))
	waitApplied(t, s)

	var p ToplistPayload
	getJSON(t, ts.URL+"/toplist?k=5", &p)
	if p.K != 5 || p.Capacity != 16 {
		t.Fatalf("payload echo: %+v", p)
	}
	if len(p.Entries) == 0 || len(p.Entries) > 5 {
		t.Fatalf("entries = %d, want 1..5", len(p.Entries))
	}
	for i, hh := range p.Entries {
		if hh.Skeleton == "" || hh.Count <= 0 || hh.Err < 0 || hh.Err >= hh.Count {
			t.Errorf("entry %d ill-formed: %+v", i, hh)
		}
		if i > 0 && hh.Count > p.Entries[i-1].Count {
			t.Errorf("entries not count-descending at %d", i)
		}
	}
	if p.ObservedQueries <= 0 || p.Tracked <= 0 {
		t.Errorf("sketch counters empty: %+v", p)
	}
	users := map[string]struct{}{}
	for _, e := range log {
		users[e.User] = struct{}{}
	}
	n := int64(len(users))
	if p.DistinctUsersEstimate < n-n/20 || p.DistinctUsersEstimate > n+n/20 {
		t.Errorf("distinct estimate %d for %d users", p.DistinctUsersEstimate, n)
	}

	// The report payload carries the same sketch summary.
	var rp ReportPayload
	getJSON(t, ts.URL+"/report", &rp)
	if rp.Sketch == nil {
		t.Fatal("report payload missing sketches block")
	}
	if rp.Sketch.DistinctUsersEstimate != p.DistinctUsersEstimate {
		t.Errorf("report estimate %d, toplist estimate %d", rp.Sketch.DistinctUsersEstimate, p.DistinctUsersEstimate)
	}
	if rp.Report.DistinctUsers != int(p.DistinctUsersEstimate) {
		t.Errorf("report.distinct_users = %d, want the estimate %d", rp.Report.DistinctUsers, p.DistinctUsersEstimate)
	}
}

// TestToplistDisabledAndBadK pins the error paths.
func TestToplistDisabledAndBadK(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Stream: stream.ShardedConfig{Config: stream.Config{Sketches: sketch.Config{Disabled: true}}},
	})
	resp, err := http.Get(ts.URL + "/toplist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled sketches: status %d, want 404", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, Config{})
	resp, err = http.Get(ts2.URL + "/toplist?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=-1: status %d, want 400", resp.StatusCode)
	}
}

// TestJSONEndpointsContentTypeAndMethods pins the HTTP contract for the JSON
// read endpoints: Content-Type carries an explicit charset, and non-GET
// methods are rejected with 405.
func TestJSONEndpointsContentTypeAndMethods(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	_, ts := newTestServer(t, Config{})
	postIngest(t, ts.URL, ndjsonBody(logmodel.Log{
		{Time: base, User: "alice", Statement: "SELECT name FROM Employees WHERE id = 1"},
	}))
	for _, path := range []string{"/report", "/clusters", "/toplist", "/healthz", "/statusz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		ct := resp.Header.Get("Content-Type")
		if path == "/statusz" {
			// The one HTML page; everything else is JSON with charset.
			if ct != "text/html; charset=utf-8" {
				t.Errorf("GET %s: Content-Type %q, want text/html; charset=utf-8", path, ct)
			}
		} else if ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s: Content-Type %q, want application/json; charset=utf-8", path, ct)
		}

		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
		}
	}
	// And the write endpoint the other way around.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
}
