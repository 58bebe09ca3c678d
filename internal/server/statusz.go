// GET /statusz: a self-contained human status page — the one URL an operator
// opens first on a suspect node. Everything on it comes from state the daemon
// already tracks (the obs registry, the engine, the journal), assembled at
// request time; there is no background renderer to keep alive. ?format=text
// serves the same content as plain text for curl-only environments.
package server

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"

	"sqlclean/internal/obs"
)

// statuszData is everything the page renders: the /healthz document, plus
// the rows it lacks.
type statuszData struct {
	HealthPayload
	ProcessUptime time.Duration
	// ShardQueueDepths is each shard's queue depth, beside
	// ShardWatermarkLagSeconds.
	ShardQueueDepths []int64

	IngestRequests int64
	IngestAccepted int64
	IngestP50ms    float64
	IngestP95ms    float64
	IngestP99ms    float64

	FsyncP50us float64
	FsyncP99us float64
	// Group-commit effectiveness: commits and fsyncs are counted
	// independently, so fsyncs ÷ accepted entries (and entries per fsync)
	// make the cross-request coalescing visible in production.
	Commits         int64
	Fsyncs          int64
	FsyncsPerEntry  float64       // journal_fsync_ns count ÷ ingest_accepted_total
	EntriesPerFsync float64       // mean of journal_group_commit_entries
	SnapshotAge     time.Duration // -1 encoded as HasSnapshot=false
	HasSnapshot     bool

	Goroutines int64
	HeapInuse  int64
	GCRuns     int64
	GCPauseP99 float64
}

func (s *Server) statuszData() statuszData {
	// Refresh the shared runtime collector so the Go process rows are current.
	s.reg.Runtime().Collect()
	snap := s.reg.Snapshot()

	d := statuszData{
		HealthPayload: s.health(),
		ProcessUptime: obs.Uptime().Round(time.Second),
	}
	for _, g := range s.qDepthShard {
		d.ShardQueueDepths = append(d.ShardQueueDepths, g.Value())
	}

	d.IngestRequests = snap.Counters["ingest_requests_total"]
	d.IngestAccepted = snap.Counters["ingest_accepted_total"]
	if lat, ok := snap.Histograms["http_ingest_latency_ns"]; ok {
		const ms = float64(time.Millisecond)
		d.IngestP50ms = lat.Quantile(0.50) / ms
		d.IngestP95ms = lat.Quantile(0.95) / ms
		d.IngestP99ms = lat.Quantile(0.99) / ms
	}

	if s.jw != nil {
		d.Commits = snap.Counters["journal_commits_total"]
		if fs, ok := snap.Histograms["journal_fsync_ns"]; ok && fs.Count > 0 {
			const us = float64(time.Microsecond)
			d.FsyncP50us = fs.Quantile(0.50) / us
			d.FsyncP99us = fs.Quantile(0.99) / us
			d.Fsyncs = fs.Count
			if d.IngestAccepted > 0 {
				d.FsyncsPerEntry = float64(fs.Count) / float64(d.IngestAccepted)
			}
		}
		if gc, ok := snap.Histograms["journal_group_commit_entries"]; ok && gc.Count > 0 {
			d.EntriesPerFsync = float64(gc.Sum) / float64(gc.Count)
		}
		if ns := s.lastSnapshotNS.Load(); ns > 0 {
			d.HasSnapshot = true
			d.SnapshotAge = time.Since(time.Unix(0, ns)).Round(time.Second)
		}
	}

	d.Goroutines = snap.Gauges["go_goroutines"].Value
	d.HeapInuse = snap.Gauges["go_heap_inuse_bytes"].Value
	d.GCRuns = snap.Counters["go_gc_runs_total"]
	if gp, ok := snap.Histograms["go_gc_pause_ns"]; ok && gp.Count > 0 {
		d.GCPauseP99 = gp.Quantile(0.99) / float64(time.Microsecond)
	}
	return d
}

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"lag":  fmtLag,
	"secs": fmtSeconds,
	"f1":   func(v float64) string { return fmt.Sprintf("%.1f", v) },
	"f3":   func(v float64) string { return fmt.Sprintf("%.3f", v) },
	"mib":  func(v int64) string { return fmt.Sprintf("%.1f MiB", float64(v)/(1<<20)) },
}).Parse(`<!DOCTYPE html>
<html><head><title>sqlcleand statusz</title><style>
body{font-family:sans-serif;margin:1.5em;color:#222}
h1{font-size:1.3em} h2{font-size:1.05em;margin-top:1.4em;border-bottom:1px solid #ccc}
table{border-collapse:collapse;margin:.4em 0} td,th{padding:.15em .8em;text-align:right;border-bottom:1px solid #eee}
th{background:#f5f5f5} .k{text-align:left} .warn{color:#b00}
</style></head><body>
<h1>sqlcleand — {{.Status}}</h1>
<table>
<tr><td class=k>version</td><td>{{.Version}}</td></tr>
<tr><td class=k>server uptime</td><td>{{secs .UptimeSeconds}}</td></tr>
<tr><td class=k>process uptime</td><td>{{.ProcessUptime}}</td></tr>
</table>
<h2>Ingest</h2>
<table>
<tr><td class=k>requests</td><td>{{.IngestRequests}}</td></tr>
<tr><td class=k>entries accepted</td><td>{{.IngestAccepted}}</td></tr>
<tr><td class=k>latency p50 / p95 / p99 (ms)</td><td>{{f1 .IngestP50ms}} / {{f1 .IngestP95ms}} / {{f1 .IngestP99ms}}</td></tr>
<tr><td class=k>queue depth / capacity</td><td>{{.QueueDepth}} / {{.QueueCapacity}}</td></tr>
<tr><td class=k>open sessions</td><td>{{.OpenSessions}}</td></tr>
<tr><td class=k>global watermark lag</td><td>{{lag .WatermarkLagSeconds}}</td></tr>
</table>
<h2>Shards</h2>
<table><tr><th>shard</th><th>queue depth</th><th>watermark lag</th></tr>
{{range $i, $lag := .ShardWatermarkLagSeconds}}<tr><td>{{$i}}</td><td>{{index $.ShardQueueDepths $i}}</td><td>{{lag $lag}}</td></tr>
{{end}}</table>
{{with .Durability}}<h2>Durability</h2>
<table>
<tr><td class=k>journal LSN</td><td>{{.JournalLSN}}</td></tr>
<tr><td class=k>snapshot LSN</td><td>{{.SnapshotLSN}}</td></tr>
<tr><td class=k>journal segments</td><td>{{.JournalSegments}}</td></tr>
<tr><td class=k>fsync p50 / p99 (µs)</td><td>{{f1 $.FsyncP50us}} / {{f1 $.FsyncP99us}}</td></tr>
<tr><td class=k>commits / fsyncs</td><td>{{$.Commits}} / {{$.Fsyncs}}</td></tr>
<tr><td class=k>fsyncs per accepted entry</td><td>{{f3 $.FsyncsPerEntry}}</td></tr>
<tr><td class=k>entries per group-commit fsync</td><td>{{f1 $.EntriesPerFsync}}</td></tr>
<tr><td class=k>snapshot age</td><td>{{if $.HasSnapshot}}{{$.SnapshotAge}}{{else}}never{{end}}</td></tr>
<tr><td class=k>replayed on boot</td><td>{{.ReplayedOnStart}}</td></tr>
</table>{{end}}
<h2>Go process</h2>
<table>
<tr><td class=k>goroutines</td><td>{{.Goroutines}}</td></tr>
<tr><td class=k>heap in use</td><td>{{mib .HeapInuse}}</td></tr>
<tr><td class=k>GC runs</td><td>{{.GCRuns}}</td></tr>
<tr><td class=k>GC pause p99 (µs)</td><td>{{f1 .GCPauseP99}}</td></tr>
</table>
<p><a href="/debug/requests">recent requests</a> · <a href="/debug/requests?view=slow">slowest requests</a> · <a href="/metrics">metrics</a> · <a href="/report">report</a> · <a href="/debug/pprof/">pprof</a></p>
</body></html>
`))

// fmtSeconds renders an uptime in seconds as a duration to the second.
func fmtSeconds(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Second)
}

// fmtLag renders a watermark lag, mapping the -1 sentinel to "no traffic".
func fmtLag(v float64) string {
	if v < 0 {
		return "no traffic"
	}
	return (time.Duration(v * float64(time.Second))).Round(time.Millisecond).String()
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	d := s.statuszData()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatuszText(w, d)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, d); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeStatuszText renders the same data as aligned plain text.
func writeStatuszText(w http.ResponseWriter, d statuszData) {
	var b strings.Builder
	row := func(k string, format string, args ...any) {
		fmt.Fprintf(&b, "%-28s %s\n", k, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(&b, "sqlcleand status: %s\n\n", d.Status)
	row("version", "%s", d.Version)
	row("server uptime", "%s", fmtSeconds(d.UptimeSeconds))
	row("process uptime", "%s", d.ProcessUptime)
	b.WriteString("\ningest\n")
	row("  requests", "%d", d.IngestRequests)
	row("  entries accepted", "%d", d.IngestAccepted)
	row("  latency p50/p95/p99 ms", "%.1f / %.1f / %.1f", d.IngestP50ms, d.IngestP95ms, d.IngestP99ms)
	row("  queue depth/capacity", "%d / %d", d.QueueDepth, d.QueueCapacity)
	row("  open sessions", "%d", d.OpenSessions)
	row("  global watermark lag", "%s", fmtLag(d.WatermarkLagSeconds))
	b.WriteString("\nshards (queue depth, watermark lag)\n")
	for i, lag := range d.ShardWatermarkLagSeconds {
		row(fmt.Sprintf("  shard %03d", i), "%d  %s", d.ShardQueueDepths[i], fmtLag(lag))
	}
	if du := d.Durability; du != nil {
		b.WriteString("\ndurability\n")
		row("  journal lsn", "%d", du.JournalLSN)
		row("  snapshot lsn", "%d", du.SnapshotLSN)
		row("  journal segments", "%d", du.JournalSegments)
		row("  fsync p50/p99 us", "%.1f / %.1f", d.FsyncP50us, d.FsyncP99us)
		row("  commits / fsyncs", "%d / %d", d.Commits, d.Fsyncs)
		row("  fsyncs per accepted entry", "%.3f", d.FsyncsPerEntry)
		row("  entries per gc fsync", "%.1f", d.EntriesPerFsync)
		if d.HasSnapshot {
			row("  snapshot age", "%s", d.SnapshotAge)
		} else {
			row("  snapshot age", "never")
		}
		row("  replayed on boot", "%d", du.ReplayedOnStart)
	}
	b.WriteString("\ngo process\n")
	row("  goroutines", "%d", d.Goroutines)
	row("  heap in use", "%.1f MiB", float64(d.HeapInuse)/(1<<20))
	row("  gc runs", "%d", d.GCRuns)
	row("  gc pause p99 us", "%.1f", d.GCPauseP99)
	_, _ = w.Write([]byte(b.String()))
}
