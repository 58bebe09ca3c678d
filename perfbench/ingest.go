package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"sqlclean/internal/colstore"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
)

// ingest-live: an open loop of small requests against a durable daemon
// that recovered a seeded journal tail at start.
const (
	liveScale       = 1   // loggen -scale: 8,149 entries per lap
	liveRequestSize = 10  // entries per POST
	liveRate        = 440 // requests/s offered on the write connection: about half the single-connection capacity (about 880/s on a 2-core VM)
	liveReadRate    = 20  // reads/s offered on the read connection
	// liveSnapshotSecs is -snapshot-interval: a few snapshots per run, each
	// freezing enqueues for tens of ms. The freezes reach the far tail (the
	// p99 line printed with the run), not the gated p90.
	liveSnapshotSecs = 5
	liveSetupStarts  = 5 // daemon starts per run; setup_s is their median
)

// ingest-backfill: a closed loop of large requests replaying one cold log.
const (
	backfillScale       = 30  // loggen -scale: 244,439 entries
	backfillRequestSize = 500 // entries per POST, at most
	// backfillSpan caps the log positions one request may span: where a
	// connection's shards are quiet, 500 of its entries would otherwise
	// cover tens of thousands of positions and push the event watermark far
	// past the other connection.
	backfillSpan        = 2000
	backfillConns       = 2 // write connections (capped at nproc)
	backfillSetupStarts = 3 // extra start/kill cycles, for set-up samples
	backfillReads       = 8 // post-drain reads of each view per pass
	// backfillLead bounds how far (in log entries) one connection may run
	// ahead of the other's first unacknowledged entry, so a connection
	// stalled on a full shard queue cannot fall a session gap behind.
	backfillLead = 500
)

// retryWait is the fixed pause before re-sending a 429's refused suffix.
const retryWait = 5 * time.Millisecond

// drive is one daemon workload's raw outcome.
type drive struct {
	setup     []float64 // start → first /healthz 200, s
	rss       []float64 // peak RSS per daemon process that carried load, MB
	acks      []float64 // per request: due (or send) → ack of its last entry, ms
	late      []float64 // open loop: first send − due; closed loop: last re-send − first send; ms
	reads     []float64 // ms, timed from due (or send)
	readsBy   map[string][]float64
	rates     []float64 // acked entries / (first send → drained), per pass
	acked     int       // entries acknowledged
	offered   int       // entries sent, re-sends included
	refused   int       // entries refused with 429
	attempted int
	failed    int
	qdepth    []float64 // /healthz samples (traced)
	open      []float64
	deltas    map[string]float64 // /metrics after − before the load, summed over passes
	problems  []string
}

func (d *drive) problem(format string, a ...any) {
	d.failed++
	d.problems = append(d.problems, fmt.Sprintf(format, a...))
}

func (d *drive) addDeltas(before, after map[string]float64) {
	if d.deltas == nil {
		d.deltas = map[string]float64{}
	}
	for k, v := range after {
		d.deltas[k] += v - before[k]
	}
}

// deliver sends one request until every entry is accepted: after a 429 it
// waits retryWait and re-sends the refused suffix. It returns when its last
// attempt was sent and when its last entry was acknowledged.
func deliver(cl *http.Client, base string, q request, d *drive, mu *sync.Mutex) (last, acked time.Time, err error) {
	from := 0
	for {
		last = time.Now()
		status, rep, err := post(cl, base, q.body(from))
		mu.Lock()
		d.attempted++
		d.offered += len(q.lines) - from
		mu.Unlock()
		if err != nil {
			return last, time.Time{}, err
		}
		switch status {
		case http.StatusOK:
			if from+rep.Accepted != len(q.lines) {
				return last, time.Time{}, fmt.Errorf("request %d: 200 but %d of %d entries accepted", q.id, from+rep.Accepted, len(q.lines))
			}
			return last, time.Now(), nil
		case http.StatusTooManyRequests:
			if rep.Line != rep.Accepted+1 {
				return last, time.Time{}, fmt.Errorf("request %d: 429 reports line %d after %d accepted", q.id, rep.Line, rep.Accepted)
			}
			from += rep.Accepted
			mu.Lock()
			d.refused += len(q.lines) - from
			mu.Unlock()
			time.Sleep(retryWait)
		default:
			return last, time.Time{}, fmt.Errorf("request %d: status %d: %s", q.id, status, rep.Error)
		}
	}
}

// sampler polls /healthz every 100 ms until stop is closed (traced runs).
func sampler(cl *http.Client, base string, d *drive, mu *sync.Mutex, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			var h health
			if err := getJSON(cl, base+"/healthz", &h); err == nil {
				mu.Lock()
				d.qdepth = append(d.qdepth, float64(h.QueueDepth))
				d.open = append(d.open, float64(h.OpenSessions))
				mu.Unlock()
			}
		}
	}
}

// liveInput is ingest-live's generated input.
type liveInput struct {
	seedDir  string // seeded data dir template: retention blocks + WAL tail
	tailBody []byte // the WAL tail as TSV, for the reference
	tail     int    // entries in the WAL tail
	history  int    // entries compacted into retention blocks
	reqs     []request
	readURLs []string
}

func makeLiveInput(e env) (*liveInput, error) {
	l := generate(liveScale, e.seed)
	if err := checkClock(len(l), 0); err != nil {
		return nil, err
	}
	n := len(l)
	in := &liveInput{seedDir: filepath.Join(e.work, "live-seed"), history: n, tail: n}
	history, tail := stamp(l, 0, n), stamp(l, n, n)
	topFP, err := seedDataDir(in.seedDir, history, tail)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := logmodel.WriteTSV(&buf, tail); err != nil {
		return nil, err
	}
	in.tailBody = buf.Bytes()
	reqs := int(e.seconds.Seconds() * liveRate)
	in.reqs = splitRequests(stamp(l, 2*n, reqs*liveRequestSize), liveRequestSize, liveRequestSize, 1, newRouter())
	in.readURLs = []string{
		"/report?top=20",
		"/toplist?k=20",
		"/clusters?top=10",
		"/history?template=" + strconv.FormatUint(topFP, 10),
	}
	return in, nil
}

// seedDataDir builds a daemon data dir through the journal and colstore
// public APIs: history is journaled and then compacted into retention
// blocks and truncated, as sqlclean -compact does; tail is journaled into
// the following segment, which a starting daemon must replay. It returns
// the most frequent template (engine fingerprint) in the history.
func seedDataDir(dir string, history, tail []logmodel.Entry) (uint64, error) {
	appendAll := func(w *journal.Writer, entries []logmodel.Entry) error {
		for lo := 0; lo < len(entries); lo += 512 {
			if _, _, err := w.AppendBatch(entries[lo:min(lo+512, len(entries))]); err != nil {
				return err
			}
		}
		return w.Sync()
	}
	w, err := journal.Open(journal.Options{Dir: dir, Policy: journal.FsyncNever})
	if err != nil {
		return 0, err
	}
	if err := appendAll(w, history); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		return 0, fmt.Errorf("seed: want one history segment, found %d (%v)", len(segs), err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		return 0, err
	}
	// Reopened with the history segment's own size as the rotation limit,
	// the journal starts the tail in a new segment.
	w, err = journal.Open(journal.Options{Dir: dir, SegmentBytes: fi.Size(), Policy: journal.FsyncNever})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	if err := appendAll(w, tail); err != nil {
		return 0, err
	}
	st, err := colstore.Open(colstore.Options{Dir: filepath.Join(dir, "colstore")})
	if err != nil {
		return 0, err
	}
	parser := parsedlog.NewParser()
	classify := func(stmt string) colstore.Classification {
		pe := parser.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		return colstore.Classification{EngineFP: pe.Info.Fingerprint}
	}
	below := uint64(len(history)) + 1
	sealed := w.SealedSegmentsBelow(below)
	if len(sealed) != 1 {
		return 0, fmt.Errorf("seed: want one sealed history segment, found %d", len(sealed))
	}
	if n, err := st.CompactSegment(sealed[0], classify); err != nil || n != len(history) {
		return 0, fmt.Errorf("seed: compacted %d of %d history entries (%v)", n, len(history), err)
	}
	if _, err := w.TruncateBefore(below); err != nil {
		return 0, err
	}
	counts := map[uint64]int{}
	var top uint64
	for _, e := range history {
		pe := parser.ParseEntry(e)
		if pe.Info == nil {
			continue
		}
		fp := pe.Info.Fingerprint
		counts[fp]++
		if c, t := counts[fp], counts[top]; c > t || (c == t && fp < top) {
			top = fp
		}
	}
	return top, w.Close()
}

func liveArgs(dataDir string) []string {
	return []string{
		"-data-dir", dataDir, "-fsync", "always", "-retain",
		"-snapshot-interval", fmt.Sprintf("%ds", liveSnapshotSecs),
		"-shards", strconv.Itoa(numShards), "-queue", strconv.Itoa(queueSize),
	}
}

// driveLive runs ingest-live once: liveSetupStarts recoveries of the
// seeded data dir, then the open loop on the last one, then the checks.
func driveLive(e env, in *liveInput, tr *tracer) (*drive, error) {
	d := &drive{readsBy: map[string][]float64{}}
	var dm *daemon
	for k := 0; k < liveSetupStarts; k++ {
		dir := filepath.Join(e.work, fmt.Sprintf("live-data-%d", k))
		if err := copyDir(in.seedDir, dir); err != nil {
			return nil, err
		}
		var took time.Duration
		var err error
		dm, took, err = startDaemon(e.daemon, liveArgs(dir), filepath.Join(e.work, fmt.Sprintf("live-%d.log", k)))
		if err != nil {
			return nil, err
		}
		d.setup = append(d.setup, took.Seconds())
		if k < liveSetupStarts-1 {
			dm.kill()
		}
	}
	defer func() {
		if dm != nil {
			dm.kill()
		}
	}()

	cs := newConns(2, runtime.NumCPU())
	defer cs.close()
	writer, reader := cs.get(0), cs.get(1)
	var mu sync.Mutex
	before, err := scrapeMetrics(reader, dm.base)
	if err != nil {
		return nil, err
	}

	var load, samp sync.WaitGroup
	stopSampling := make(chan struct{})
	if tr != nil {
		samp.Add(1)
		go sampler(reader, dm.base, d, &mu, stopSampling, &samp)
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	end := t0.Add(e.seconds)
	load.Add(2)
	go func() { // write connection: open loop at liveRate
		defer load.Done()
		for i, q := range in.reqs {
			due := t0.Add(time.Duration(float64(i) / liveRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			sent := time.Now()
			_, acked, err := deliver(writer, dm.base, q, d, &mu)
			mu.Lock()
			if err != nil {
				d.problem("ingest-live: %v", err)
				mu.Unlock()
				continue
			}
			d.acked += len(q.lines)
			d.acks = append(d.acks, ms(acked.Sub(due)))
			d.late = append(d.late, ms(sent.Sub(due)))
			mu.Unlock()
			tr.add("client.ack", -1, q.id, sent, acked)
		}
	}()
	go func() { // read connection: the cyclic read mix at liveReadRate
		defer load.Done()
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(float64(i) / liveReadRate * float64(time.Second)))
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			url := in.readURLs[i%len(in.readURLs)]
			err := getJSON(reader, dm.base+url, nil)
			done := time.Now()
			mu.Lock()
			d.attempted++
			if err != nil {
				d.problem("ingest-live read: %v", err)
			} else {
				d.reads = append(d.reads, ms(done.Sub(due)))
				d.readsBy[endpoint(url)] = append(d.readsBy[endpoint(url)], ms(done.Sub(due)))
			}
			mu.Unlock()
			tr.add("client.read."+endpoint(url), -1, -1, due, done)
		}
	}()
	load.Wait()
	close(stopSampling)
	samp.Wait()
	drained, err := waitDrained(writer, dm.base, in.tail+d.acked, time.Minute)
	if err != nil {
		return nil, err
	}
	d.rates = append(d.rates, float64(d.acked)/drained.Sub(t0).Seconds())
	if err := finishPass(cs.get(0), dm, d, before, in.tail+d.acked); err != nil {
		return nil, err
	}
	got, err := fetchView(writer, dm.base)
	if err != nil {
		return nil, err
	}
	rss, err := dm.stop(false)
	dm = nil
	if err != nil {
		return nil, err
	}
	d.rss = append(d.rss, rss)

	ref, err := newReference(append([][]byte{in.tailBody}, bodies(in.reqs)...))
	if err != nil {
		return nil, err
	}
	compare(d, got, ref.view(), ref.rejected)
	return d, nil
}

// finishPass checks the daemon's counters after a drained load and adds
// the load's /metrics deltas.
func finishPass(cl *http.Client, dm *daemon, d *drive, before map[string]float64, wantIn int) error {
	after, err := scrapeMetrics(cl, dm.base)
	if err != nil {
		return err
	}
	d.addDeltas(before, after)
	for _, name := range []string{"ingest_rejected_order_total", "ingest_rejected_skew_total", "journal_replay_rejected_total"} {
		if after[name] != 0 {
			d.problem("daemon counted %v %s", after[name], name)
		}
	}
	if int(after["stream_entries_in_total"]) != wantIn {
		d.problem("daemon stream in = %v, want %d acked (and replayed) entries", after["stream_entries_in_total"], wantIn)
	}
	return nil
}

// compare checks the daemon's drained report against the reference's view
// (finishPass has already checked the applied count against the acks).
func compare(d *drive, got, want streamView, refRejected int) {
	d.attempted++
	if refRejected != 0 {
		d.problem("reference rejected %d entries: the event clock broke per-shard order", refRejected)
	}
	if diff := diffViews(got, want); diff != "" {
		d.problem("daemon report differs from the in-process reference: %s", diff)
	}
}

func endpoint(url string) string {
	p := url[1:]
	for i, c := range p {
		if c == '?' {
			return p[:i]
		}
	}
	return p
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// backfillInput is ingest-backfill's generated input.
type backfillInput struct {
	entries int
	conns   int
	reqs    []request
	want    streamView // the reference's view, computed once per run
	refRej  int
}

func makeBackfillInput(e env) (*backfillInput, error) {
	l := generate(backfillScale, e.seed)
	if err := checkClock(len(l), backfillLead+backfillSpan); err != nil {
		return nil, err
	}
	conns := max(1, min(backfillConns, runtime.NumCPU()))
	in := &backfillInput{entries: len(l), conns: conns}
	in.reqs = splitRequests(stamp(l, 0, len(l)), backfillRequestSize, backfillSpan, conns, newRouter())
	ref, err := newReference(bodies(in.reqs))
	if err != nil {
		return nil, err
	}
	in.want, in.refRej = ref.view(), ref.rejected
	ref = nil
	runtime.GC()
	debug.FreeOSMemory()
	return in, nil
}

func backfillArgs() []string {
	return []string{"-fsync", "interval", "-shards", strconv.Itoa(numShards), "-queue", strconv.Itoa(queueSize)}
}

// progress enforces backfillLead between the write connections.
type progress struct {
	mu   sync.Mutex
	cond *sync.Cond
	next []int64 // first unacknowledged log index per connection
}

func newProgress(n int) *progress {
	p := &progress{next: make([]int64, n)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// wait blocks connection c until no other connection is more than
// backfillLead entries behind first.
func (p *progress) wait(c int, first int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		ok := true
		for o, n := range p.next {
			if o != c && n != math.MaxInt64 && first > n+backfillLead {
				ok = false
			}
		}
		if ok {
			return
		}
		p.cond.Wait()
	}
}

func (p *progress) set(c int, next int64) {
	p.mu.Lock()
	p.next[c] = next
	p.cond.Broadcast()
	p.mu.Unlock()
}

// driveBackfill runs ingest-backfill: set-up samples, then passes over the
// cold log on fresh daemons until the measurement time is used up.
func driveBackfill(e env, in *backfillInput, tr *tracer) (*drive, error) {
	d := &drive{readsBy: map[string][]float64{}}
	for k := 0; k < backfillSetupStarts; k++ {
		dm, took, err := startDaemon(e.daemon, backfillArgs(), filepath.Join(e.work, fmt.Sprintf("backfill-setup-%d.log", k)))
		if err != nil {
			return nil, err
		}
		d.setup = append(d.setup, took.Seconds())
		dm.kill()
	}
	var loadTime time.Duration
	for pass := 0; pass == 0 || loadTime < e.seconds; pass++ {
		took, err := backfillPass(e, in, d, tr, pass)
		if err != nil {
			return nil, err
		}
		loadTime += took
	}
	return d, nil
}

func backfillPass(e env, in *backfillInput, d *drive, tr *tracer, pass int) (time.Duration, error) {
	dm, took, err := startDaemon(e.daemon, backfillArgs(), filepath.Join(e.work, fmt.Sprintf("backfill-%d.log", pass)))
	if err != nil {
		return 0, err
	}
	defer func() {
		if dm != nil {
			dm.kill()
		}
	}()
	d.setup = append(d.setup, took.Seconds())
	cs := newConns(in.conns, runtime.NumCPU())
	defer cs.close()
	before, err := scrapeMetrics(cs.get(0), dm.base)
	if err != nil {
		return 0, err
	}
	perConn := make([][]request, in.conns)
	for _, q := range in.reqs {
		perConn[q.conn] = append(perConn[q.conn], q)
	}
	prog := newProgress(in.conns)
	for c, qs := range perConn {
		if len(qs) > 0 {
			prog.next[c] = qs[0].first()
		} else {
			prog.next[c] = math.MaxInt64
		}
	}
	var mu sync.Mutex
	var load, samp sync.WaitGroup
	stopSampling := make(chan struct{})
	if tr != nil {
		samp.Add(1)
		go sampler(cs.get(0), dm.base, d, &mu, stopSampling, &samp)
	}
	acked := 0
	t0 := time.Now()
	for c, qs := range perConn {
		load.Add(1)
		go func(c int, qs []request) {
			defer load.Done()
			for i, q := range qs {
				prog.wait(c, q.first())
				sent := time.Now()
				last, ack, err := deliver(cs.get(c), dm.base, q, d, &mu)
				next := int64(math.MaxInt64)
				if i+1 < len(qs) {
					next = qs[i+1].first()
				}
				prog.set(c, next)
				mu.Lock()
				if err != nil {
					d.problem("ingest-backfill: %v", err)
				} else {
					acked += len(q.lines)
					d.acks = append(d.acks, ms(ack.Sub(sent)))
					d.late = append(d.late, ms(last.Sub(sent)))
				}
				mu.Unlock()
				tr.add("client.ack", -1, q.id, sent, ack)
			}
		}(c, qs)
	}
	load.Wait()
	close(stopSampling)
	samp.Wait()
	drained, err := waitDrained(cs.get(0), dm.base, acked, 5*time.Minute)
	if err != nil {
		return 0, err
	}
	loadTook := drained.Sub(t0)
	d.acked += acked
	d.rates = append(d.rates, float64(acked)/loadTook.Seconds())
	if err := finishPass(cs.get(0), dm, d, before, acked); err != nil {
		return 0, err
	}
	// Collect the drained daemon's heap (the heap profile handler runs a GC
	// with gc=1) so the reads are timed on a settled process, not against
	// whatever GC cycle the drain left running.
	if err := getJSON(cs.get(0), dm.base+"/debug/pprof/heap?gc=1", nil); err != nil {
		return 0, err
	}
	for i := 0; i < backfillReads; i++ {
		for _, url := range []string{"/report?top=20", "/toplist?k=20", "/clusters?top=10"} {
			start := time.Now()
			err := getJSON(cs.get(0), dm.base+url, nil)
			done := time.Now()
			d.attempted++
			if err != nil {
				d.problem("ingest-backfill read: %v", err)
				continue
			}
			d.reads = append(d.reads, ms(done.Sub(start)))
			d.readsBy[endpoint(url)] = append(d.readsBy[endpoint(url)], ms(done.Sub(start)))
			tr.add("client.read."+endpoint(url), -1, -1, start, done)
		}
	}
	got, err := fetchView(cs.get(0), dm.base)
	if err != nil {
		return 0, err
	}
	rss, err := dm.stop(false)
	dm = nil
	if err != nil {
		return 0, err
	}
	d.rss = append(d.rss, rss)
	compare(d, got, in.want, in.refRej)
	return loadTook, nil
}

// endToEnd turns a drive into the end-to-end metrics.
func endToEnd(d *drive, rep *report) {
	rep.ops(d.attempted, d.failed)
	for _, p := range d.problems {
		rep.res.Correct = false
		rep.note("CHECK FAILED: %s", p)
	}
	rep.set("setup_s", median(d.setup), "s", len(d.setup))
	rep.set("entries_per_s", median(d.rates), "entries/s", len(d.rates))
	rep.set("ack_p50_ms", median(d.acks), "ms", len(d.acks))
	rep.set("peak_rss_mb", median(d.rss), "MB", len(d.rss))
	rep.alias("entries_per_s", "ingest_entries_per_s")
	for _, m := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"ack_p90_ms", d.acks, 0.9}, {"ack_p99_ms", d.acks, 0.99}, {"read_p50_ms", d.reads, 0.5}, {"read_p95_ms", d.reads, 0.95}} {
		rep.note("metric %-34s %14.4f %-10s n=%d (not gated: see README)", m.name, percentile(append([]float64(nil), m.xs...), m.p), "ms", len(m.xs))
	}
	rep.note("per pass: entries/s %v, peak RSS MB %v", round(d.rates), round(d.rss))
	rep.note("ack ms by percentile: %s", profile(d.acks))
	rep.note("read ms by percentile: %s", profile(d.reads))
	names := make([]string, 0, len(d.readsBy))
	for name := range d.readsBy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.note("read %-10s p50 %8.3f ms n=%d", name, median(d.readsBy[name]), len(d.readsBy[name]))
	}
}

func runIngestLive(e env, rep *report) error {
	in, err := makeLiveInput(e)
	if err != nil {
		return err
	}
	liveProvenance(rep, in, e)
	if e.trace {
		return traceIngest(e, rep, func(tr *tracer) (*drive, error) { return driveLive(e, in, tr) }, liveLayerInput(in, e))
	}
	d, err := driveLive(e, in, nil)
	if err != nil {
		return err
	}
	endToEnd(d, rep)
	return nil
}

func liveProvenance(rep *report, in *liveInput, e env) {
	rep.provenance["input_scale"] = liveScale
	rep.provenance["seeded_history_entries"] = in.history
	rep.provenance["seeded_wal_tail_entries"] = in.tail
	rep.provenance["load_entries"] = len(in.reqs) * liveRequestSize
	rep.provenance["fsync"] = "always"
	rep.provenance["snapshot_interval"] = fmt.Sprintf("%ds", liveSnapshotSecs)
	rep.provenance["retain"] = true
	rep.provenance["request_entries"] = liveRequestSize
	rep.provenance["write_rate_req_per_s"] = liveRate
	rep.provenance["read_rate_per_s"] = liveReadRate
	rep.provenance["read_mix"] = in.readURLs
	rep.provenance["connections"] = min(2, runtime.NumCPU())
	rep.provenance["loop"] = "open"
}

func runIngestBackfill(e env, rep *report) error {
	in, err := makeBackfillInput(e)
	if err != nil {
		return err
	}
	rep.provenance["input_scale"] = backfillScale
	rep.provenance["input_entries"] = in.entries
	rep.provenance["fsync"] = "interval"
	rep.provenance["snapshot_interval"] = "none (no -data-dir)"
	rep.provenance["retain"] = false
	rep.provenance["request_entries"] = backfillRequestSize
	rep.provenance["connections"] = in.conns
	rep.provenance["loop"] = "closed"
	rep.provenance["connection_lead_entries"] = backfillLead
	rep.provenance["retry_wait"] = retryWait.String()
	rep.provenance["post_drain_reads_per_view_per_pass"] = backfillReads
	if e.trace {
		return traceIngest(e, rep, func(tr *tracer) (*drive, error) { return driveBackfill(e, in, tr) }, backfillLayerInput(in, e))
	}
	d, err := driveBackfill(e, in, nil)
	if err != nil {
		return err
	}
	endToEnd(d, rep)
	return nil
}
