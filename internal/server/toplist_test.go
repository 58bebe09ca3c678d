package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/workload"
)

// TestToplistEndpoint ingests a workload and checks the payload against the
// engine's template table: every template with its exact count, ordered by
// count descending then fingerprint ascending, ?k= a prefix of that order,
// and the exact distinct-user count.
func TestToplistEndpoint(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.05))
	log.SortStable()
	s, ts := newTestServer(t, Config{})
	postIngest(t, ts.URL, ndjsonBody(log))
	waitApplied(t, s)

	templates := s.Engine().Templates()
	want := make(map[uint64]ToplistEntry, len(templates))
	for _, tmpl := range templates {
		want[tmpl.Fingerprint] = ToplistEntry{Fingerprint: tmpl.Fingerprint, Skeleton: tmpl.Skeleton, Count: int64(tmpl.Frequency)}
	}
	var all ToplistPayload
	getJSON(t, ts.URL+"/toplist?k=0", &all)
	if len(templates) <= 5 || len(all.Entries) != len(templates) {
		t.Fatalf("k=0 served %d entries for %d templates, want all of more than 5", len(all.Entries), len(templates))
	}
	for i, e := range all.Entries {
		if e != want[e.Fingerprint] {
			t.Errorf("entry %d = %+v, template table has %+v", i, e, want[e.Fingerprint])
		}
		if i > 0 {
			prev := all.Entries[i-1]
			if prev.Count < e.Count || prev.Count == e.Count && prev.Fingerprint >= e.Fingerprint {
				t.Errorf("entries %d and %d out of order: %+v, %+v", i-1, i, prev, e)
			}
		}
	}
	if all.Tracked != len(templates) {
		t.Errorf("tracked_templates = %d, want %d", all.Tracked, len(templates))
	}
	if selects := int64(s.Engine().Stats().Selects); all.ObservedQueries != selects {
		t.Errorf("observed_queries = %d, want stream selects %d", all.ObservedQueries, selects)
	}

	var p ToplistPayload
	getJSON(t, ts.URL+"/toplist?k=5", &p)
	if p.K != 5 || p.Tracked != all.Tracked || p.ObservedQueries != all.ObservedQueries {
		t.Fatalf("k=5 payload %+v disagrees with k=0", p)
	}
	if !reflect.DeepEqual(p.Entries, all.Entries[:5]) {
		t.Errorf("k=5 entries %+v, want the first 5 of %+v", p.Entries, all.Entries)
	}

	if n := int64(log.Users()); p.DistinctUsersEstimate != n {
		t.Errorf("distinct_users_estimate %d for %d users", p.DistinctUsersEstimate, n)
	}

	// The report payload carries the same counts.
	var rp ReportPayload
	getJSON(t, ts.URL+"/report", &rp)
	if rp.Report.CountTemplates != all.Tracked || int64(rp.Stream.Selects) != all.ObservedQueries {
		t.Errorf("report counts %d templates and %d selects, toplist %d and %d",
			rp.Report.CountTemplates, rp.Stream.Selects, all.Tracked, all.ObservedQueries)
	}
	if rp.Sketch.DistinctUsersEstimate != p.DistinctUsersEstimate {
		t.Errorf("report distinct_users_estimate %d, toplist %d", rp.Sketch.DistinctUsersEstimate, p.DistinctUsersEstimate)
	}
	if rp.Report.DistinctUsers != int(p.DistinctUsersEstimate) {
		t.Errorf("report.distinct_users = %d, toplist %d", rp.Report.DistinctUsers, p.DistinctUsersEstimate)
	}
}

// TestToplistBadK pins the error path: a negative k is a client error.
func TestToplistBadK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/toplist?k=-1")
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
