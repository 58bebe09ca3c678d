package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlclean"
)

func TestEventClockMonotonePerShard(t *testing.T) {
	l := generate(liveScale, 1)
	entries := stamp(l, 0, 3*len(l))
	rt := newRouter()
	last := make([]time.Time, numShards)
	for _, e := range entries {
		s := rt.shard(e)
		if !e.Time.After(last[s]) {
			t.Fatalf("shard %d: event time %v does not follow %v", s, e.Time, last[s])
		}
		last[s] = e.Time
	}
	if err := checkClock(len(l), 0); err != nil {
		t.Fatalf("ingest-live clock: %v", err)
	}
	if err := checkClock(len(generate(backfillScale, 1)), backfillLead+backfillSpan); err != nil {
		t.Fatalf("ingest-backfill clock: %v", err)
	}
	if checkClock(100, 0) == nil {
		t.Fatal("a 100-entry lap shorter than the session gap passed the clock check")
	}
	if checkClock(len(l), 10000) == nil {
		t.Fatal("a lead of 10,000 positions passed the queued-span bound")
	}
}

func TestRequestsKeepEachShardOnOneConnection(t *testing.T) {
	l := generate(2, 3)
	entries := stamp(l, 0, len(l))
	rt := newRouter()
	reqs := splitRequests(entries, backfillRequestSize, backfillSpan, 2, rt)
	connOf := map[int]int{}
	next := map[int]int64{} // per connection: the next log index it may send
	total := 0
	for i, q := range reqs {
		if q.id != i {
			t.Fatalf("request %d has id %d", i, q.id)
		}
		if i > 0 && q.first() < reqs[i-1].first() {
			t.Fatalf("requests out of first-entry order at %d", i)
		}
		if n := len(q.entries); n == 0 || n > backfillRequestSize {
			t.Fatalf("request %d has %d entries", i, n)
		}
		if span := q.entries[len(q.entries)-1].Seq - q.first(); span >= backfillSpan {
			t.Fatalf("request %d spans %d positions", i, span)
		}
		for _, e := range q.entries {
			s := rt.shard(e)
			if c, ok := connOf[s]; ok && c != q.conn {
				t.Fatalf("shard %d travels on connections %d and %d", s, c, q.conn)
			}
			connOf[s] = q.conn
			if e.Seq < next[q.conn] {
				t.Fatalf("connection %d sends index %d after %d", q.conn, e.Seq, next[q.conn])
			}
			next[q.conn] = e.Seq + 1
		}
		total += len(q.entries)
	}
	if total != len(entries) {
		t.Fatalf("requests carry %d entries, want %d", total, len(entries))
	}
}

func TestConnectionsNeverExceedNproc(t *testing.T) {
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("{}"))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	limit := runtime.NumCPU()
	cs := newConns(8, limit)
	defer cs.close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := getJSON(cs.get(g), ts.URL, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := opened.Load(); n > int64(limit) {
		t.Fatalf("server saw %d connections, nproc is %d", n, limit)
	}
	if n := cs.dials.Load(); n > int64(limit) {
		t.Fatalf("pool dialed %d connections, nproc is %d", n, limit)
	}
}

func TestBatchCheckFailsOnPerturbation(t *testing.T) {
	l := generate(0.3, 2)
	ref, _, err := serialClean(l)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sqlclean.Clean(l, sqlclean.Config{ClusterThreshold: 0.9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := batchDigest(ref)
	if got := batchDigest(par); got != want {
		t.Fatal("Workers = 4 digest differs from the serial reference")
	}
	par.Report.FinalSize++
	if batchDigest(par) == want {
		t.Fatal("a perturbed report passed the check")
	}
	par.Report.FinalSize--
	par.Clean[len(par.Clean)/2].Statement += " "
	if batchDigest(par) == want {
		t.Fatal("a perturbed clean log passed the check")
	}
}

func TestStreamCheckFailsOnPerturbation(t *testing.T) {
	l := generate(liveScale, 4)
	reqs := splitRequests(stamp(l, 0, 2*len(l)), 50, 50, 1, newRouter())
	ref, err := newReference(bodies(reqs))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.view()
	if ref.rejected != 0 || want.In != 2*len(l) || len(want.Templates) < 2 || want.SessionsEmitted == 0 {
		t.Fatalf("reference view looks wrong: rejected %d, %+v", ref.rejected, want)
	}
	clone := func() streamView {
		v := want
		v.Templates = append([]templateRow(nil), want.Templates...)
		return v
	}
	if d := diffViews(clone(), want); d != "" {
		t.Fatalf("identical views differ: %s", d)
	}
	perturb := map[string]func(*streamView){
		"out":                func(v *streamView) { v.Out++ },
		"sessions":           func(v *streamView) { v.SessionsEmitted-- },
		"template frequency": func(v *streamView) { v.Templates[1].Frequency++ },
		"missing template":   func(v *streamView) { v.Templates = v.Templates[1:] },
		"antipatterns":       func(v *streamView) { v.Antipatterns = map[string]int{"CTH": -1} },
	}
	for name, f := range perturb {
		v := clone()
		f(&v)
		if diffViews(v, want) == "" {
			t.Errorf("a perturbed %s passed the check", name)
		}
	}
}

// TestShortRunsAllWorkloads builds sqlcleand from the enclosing repository
// and runs every workload end to end for one second each.
func TestShortRunsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sqlcleand")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sqlcleand")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sqlcleand: %v\n%s", err, out)
	}
	for name, run := range workloads {
		if name == "batch-clean" {
			continue // needs the benchmark binary itself as the child
		}
		t.Run(name, func(t *testing.T) {
			rep := newReport()
			e := env{seed: 7, seconds: time.Second, daemon: bin, work: t.TempDir(), root: ".."}
			if err := run(e, rep); err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep)
		})
	}
	t.Run("batch-clean", func(t *testing.T) {
		exe := filepath.Join(dir, "perfbench")
		build := exec.Command("go", "build", "-o", exe, ".")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build perfbench: %v\n%s", err, out)
		}
		out, err := exec.Command(exe, "-daemon", bin, "-work", t.TempDir(), "-root", "..",
			"--workload", "batch-clean", "--seed", "7", "--seconds", "1", "--trace", "0").Output()
		if err != nil {
			t.Fatalf("batch-clean: %v\n%s", err, out)
		}
		t.Logf("%s", out)
	})
}

func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted == 0 {
		t.Fatalf("run not correct: %+v\n%v", rep.res, rep.lines)
	}
	for _, name := range []string{"setup_s", "entries_per_s", "ack_p50_ms", "peak_rss_mb"} {
		if m, ok := rep.res.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("metric %s = %+v (present %v), want > 0", name, m, ok)
		}
	}
}
