package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlclean"
	"sqlclean/internal/antipattern"
	"sqlclean/internal/colstore"
	"sqlclean/internal/dedup"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/server"
	"sqlclean/internal/session"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/stream"
)

// The traced run. Spans are recorded from the benchmark's own files around
// each call into a layer's public function; nothing inside the program is
// instrumented. A daemon workload's traced run (a) drives the real daemon on
// the untraced schedule with client-side spans and /metrics and /healthz
// sampling, then (b) replays the same requests in-process through each
// layer's entry point, in the order the daemon calls them. Every workload
// also runs the batch stage functions in core.Run's order over its log.

// layerInput is what the in-process suite replays for one workload.
type layerInput struct {
	reqs     []request // in the order the daemon applies them
	preBody  []byte    // entries applied before the requests (the WAL tail)
	fsync    journal.FsyncPolicy
	walDir   string // journal whose tail journal.Replay is timed over ("" = the suite's own)
	blockDir string // retention blocks for the history scan ("" = compact the suite's journal)
	logPath  string // TSV the batch stages read
	logCap   int    // cap on entries the batch stages and the speedup run on (0 = all)
}

// stageCap bounds the batch-stage probes on the ingest workloads, whose own
// work is not a batch clean.
const stageCap = 60000

// distinctProbes bounds the per-statement sqlparser/skeleton probes.
const distinctProbes = 5000

// snapshotPoints is how many times the replay snapshots the engine.
const snapshotPoints = 4

// readProbes is how often each in-process read is timed.
const readProbes = 8

// suite is the outcome of the in-process layer suite.
type suite struct {
	replay      []span // traced replay, root first
	stages      []span // batch stages, root first
	entries     int    // entries the replay applied
	stageN      int    // entries the stages ran on
	untracedRep time.Duration
	cleanPar    time.Duration
	cleanSer    time.Duration

	hits, lookups int
	missUS        float64
	hitNS         float64
	retainedMB    float64
	parseUS       float64
	analyzeUS     float64
	snapshotMB    []float64
	replayRate    float64
	scanMS        []float64
	journalMet    map[string]float64
	clusterCtr    overlap.Counters
}

func liveLayerInput(in *liveInput, e env) layerInput {
	return layerInput{
		reqs: in.reqs, preBody: in.tailBody, fsync: journal.FsyncAlways,
		walDir: in.seedDir, blockDir: filepath.Join(in.seedDir, "colstore"),
		logPath: filepath.Join(e.work, "live-log.tsv"), logCap: stageCap,
	}
}

func backfillLayerInput(in *backfillInput, e env) layerInput {
	reqs := append([]request(nil), in.reqs...)
	return layerInput{reqs: reqs, fsync: journal.FsyncInterval, logPath: filepath.Join(e.work, "backfill-log.tsv"), logCap: stageCap}
}

// writeLayerLog writes the entries the batch stages read: the pre-applied
// tail plus every request, capped at cap entries.
func writeLayerLog(li layerInput) error {
	if _, err := os.Stat(li.logPath); err == nil {
		return nil // batch-clean reads its own input file
	}
	var buf bytes.Buffer
	buf.Write(li.preBody)
	for _, q := range li.reqs {
		buf.Write(q.body(0))
	}
	l, err := logmodel.ReadTSV(&buf)
	if err != nil {
		return err
	}
	if li.logCap > 0 && len(l) > li.logCap {
		l = l[:li.logCap]
	}
	f, err := os.Create(li.logPath)
	if err != nil {
		return err
	}
	if err := logmodel.WriteTSV(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceIngest is the traced run of a daemon workload.
func traceIngest(e env, rep *report, drv func(*tracer) (*drive, error), li layerInput) error {
	tr := newTracer()
	d, err := drv(tr)
	if err != nil {
		return err
	}
	runtime.GC()
	s, err := runSuite(e, li)
	if err != nil {
		return err
	}
	layerMetrics(rep, d, tr.snapshot(), s, false)
	return nil
}

// traceBatch is batch-clean's traced run: the stage functions in core.Run's
// order, the serial baseline, and the ingest layers fed the batch log
// in-process.
func traceBatch(e env, rep *report, path string) error {
	l, err := readLog(path)
	if err != nil {
		return err
	}
	rep.provenance["input_entries"] = len(l)
	rep.provenance["input_scale"] = batchScale
	rep.provenance["request_entries"] = backfillRequestSize
	reqs := splitRequests(l, backfillRequestSize, backfillSpan, 1, newRouter())
	l = nil
	tr := newTracer()
	d, err := driveInProcess(e, reqs, tr)
	if err != nil {
		return err
	}
	runtime.GC()
	s, err := runSuite(e, layerInput{reqs: reqs, fsync: journal.FsyncInterval, logPath: path})
	if err != nil {
		return err
	}
	layerMetrics(rep, d, tr.snapshot(), s, true)
	return nil
}

// driveInProcess feeds requests to an in-process server over loopback — the
// batch log's stand-in for a daemon drive — and times the read methods.
func driveInProcess(e env, reqs []request, tr *tracer) (*drive, error) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Stream:    stream.ShardedConfig{Shards: numShards},
		QueueSize: queueSize,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := &drive{readsBy: map[string][]float64{}}
	cs := newConns(1, 1)
	defer cs.close()
	before, err := parseMetrics(registryText(reg))
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	stop := make(chan struct{})
	var samp sync.WaitGroup
	samp.Add(1)
	go sampler(cs.get(0), ts.URL, d, &mu, stop, &samp)
	t0 := time.Now()
	for _, q := range reqs {
		sent := time.Now()
		last, ack, err := deliver(cs.get(0), ts.URL, q, d, &mu)
		if err != nil {
			d.problem("in-process ingest: %v", err)
			continue
		}
		d.acked += len(q.lines)
		d.acks = append(d.acks, ms(ack.Sub(sent)))
		d.late = append(d.late, ms(last.Sub(sent)))
		tr.add("client.ack", -1, q.id, sent, ack)
	}
	close(stop)
	samp.Wait()
	drained, err := waitDrained(cs.get(0), ts.URL, d.acked, 5*time.Minute)
	if err != nil {
		return nil, err
	}
	d.rates = append(d.rates, float64(d.acked)/drained.Sub(t0).Seconds())
	after, err := parseMetrics(registryText(reg))
	if err != nil {
		return nil, err
	}
	d.addDeltas(before, after)
	reads := map[string]func(){
		"report":   func() { srv.Report(20) },
		"toplist":  func() { srv.Toplist(20) },
		"clusters": func() { srv.Clusters(0.9, 10) },
	}
	for k := 0; k < readProbes; k++ {
		for _, name := range []string{"report", "toplist", "clusters"} {
			start := time.Now()
			reads[name]()
			d.readsBy[name] = append(d.readsBy[name], ms(time.Since(start)))
			d.reads = append(d.reads, ms(time.Since(start)))
		}
	}
	return d, srv.Close(context.Background())
}

// runSuite runs the in-process layer suite.
func runSuite(e env, li layerInput) (*suite, error) {
	s := &suite{}
	if err := writeLayerLog(li); err != nil {
		return nil, err
	}
	parser, err := parseProbes(s, li)
	if err != nil {
		return nil, err
	}
	// The untraced replay runs before and after the traced one, all on the
	// pre-warmed parser; the mean of the two cancels the drift of a process
	// that is still warming up.
	untraced := func() error {
		dir0 := filepath.Join(e.work, "suite-journal-untraced")
		defer os.RemoveAll(dir0)
		start := time.Now()
		_, err := replayLayers(nil, s, li, parser, dir0)
		s.untracedRep += time.Since(start) / 2
		return err
	}
	if err := untraced(); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "suite-journal")
	tr := newTracer()
	met, err := replayLayers(tr, s, li, parser, dir)
	if err != nil {
		return nil, err
	}
	if err := untraced(); err != nil {
		return nil, err
	}
	s.replay, s.journalMet = tr.snapshot(), met
	runtime.GC()

	walDir := li.walDir
	if walDir == "" {
		walDir = dir
	}
	if err := replayProbe(s, walDir); err != nil {
		return nil, err
	}
	blockDir := li.blockDir
	if blockDir == "" {
		blockDir = filepath.Join(e.work, "suite-colstore")
		if err := compactInto(dir, blockDir, parser); err != nil {
			return nil, err
		}
	}
	if err := historyProbe(s, blockDir); err != nil {
		return nil, err
	}
	return s, stageProbes(s, li)
}

// parseProbes times Parser.ParseEntry on first and repeated texts, the heap
// the cache retains, and sqlparser.Parse and skeleton.Analyze per distinct
// statement. It returns the warmed parser for the replay.
func parseProbes(s *suite, li layerInput) (*parsedlog.Parser, error) {
	var entries []logmodel.Entry
	collect := func(body []byte) error {
		return logmodel.ScanTSV(bytes.NewReader(body), func(e logmodel.Entry) error {
			entries = append(entries, e)
			return nil
		})
	}
	if err := collect(li.preBody); err != nil {
		return nil, err
	}
	for _, q := range li.reqs {
		if err := collect(q.body(0)); err != nil {
			return nil, err
		}
	}
	first := make([]bool, len(entries))
	seen := map[string]bool{}
	var distinct []string
	for i, e := range entries {
		if !seen[e.Statement] {
			seen[e.Statement] = true
			first[i] = true
			distinct = append(distinct, e.Statement)
		}
	}
	seen = nil
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := parsedlog.NewParser()
	var miss time.Duration
	for i, e := range entries {
		start := time.Now()
		p.ParseEntry(e)
		if first[i] {
			miss += time.Since(start)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.retainedMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20)
	s.lookups = len(entries)
	s.hits = len(entries) - len(distinct)
	s.missUS = float64(miss) / float64(time.Microsecond) / float64(max(1, len(distinct)))
	start := time.Now()
	for _, e := range entries {
		p.ParseEntry(e)
	}
	s.hitNS = float64(time.Since(start)) / float64(max(1, len(entries)))

	if len(distinct) > distinctProbes {
		distinct = distinct[:distinctProbes]
	}
	var parse, analyze time.Duration
	var analyzed int
	for _, stmt := range distinct {
		start := time.Now()
		st, err := sqlparser.Parse(stmt)
		parse += time.Since(start)
		sel, ok := st.(*sqlast.SelectStatement)
		if err != nil || !ok {
			continue
		}
		start = time.Now()
		skeleton.Analyze(sel)
		analyze += time.Since(start)
		analyzed++
	}
	s.parseUS = float64(parse) / float64(time.Microsecond) / float64(max(1, len(distinct)))
	s.analyzeUS = float64(analyze) / float64(time.Microsecond) / float64(max(1, analyzed))
	return p, nil
}

// replayLayers applies the workload's requests in-process, in the order the
// daemon calls the layers for each: decode the body, frame it into the
// journal, commit, apply each shard's batch to the engine. With a tracer it
// records one span per call and snapshots the engine snapshotPoints times.
func replayLayers(tr *tracer, s *suite, li layerInput, parser *parsedlog.Parser, dir string) (map[string]float64, error) {
	reg := obs.NewRegistry()
	w, err := journal.Open(journal.Options{Dir: dir, Policy: li.fsync, Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	eng := stream.NewSharded(stream.ShardedConfig{Shards: numShards, Config: stream.Config{Parser: parser}})
	if err := logmodel.ScanTSV(bytes.NewReader(li.preBody), func(e logmodel.Entry) error {
		_, err := eng.AddShard(eng.ShardFor(e.User), e)
		return err
	}); err != nil {
		return nil, err
	}
	root := tr.start("replay", -1, -1)
	every := max(1, len(li.reqs)/snapshotPoints)
	perShard := make([][]logmodel.Entry, numShards)
	applied := 0
	for n, q := range li.reqs {
		var entries []logmodel.Entry
		sp := tr.start("logmodel.ScanTSVLines", root, q.id)
		err := logmodel.ScanTSVLines(bytes.NewReader(q.body(0)), func(_ int, e logmodel.Entry) error {
			entries = append(entries, e)
			return nil
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("journal.AppendBatch", root, q.id)
		_, _, err = w.AppendBatch(entries)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("journal.Commit", root, q.id)
		err = w.Commit()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for i := range perShard {
			perShard[i] = perShard[i][:0]
		}
		for _, e := range entries {
			i := eng.ShardFor(e.User)
			perShard[i] = append(perShard[i], e)
		}
		var applyErr error
		for i, batch := range perShard {
			if len(batch) == 0 {
				continue
			}
			sp = tr.start("stream.AddShardBatch", root, q.id)
			eng.AddShardBatch(i, batch, func(_ int, _ logmodel.Log, err error) {
				if err != nil && applyErr == nil {
					applyErr = err
				}
			})
			tr.end(sp)
		}
		if applyErr != nil {
			return nil, fmt.Errorf("replay: %w", applyErr)
		}
		applied += len(entries)
		if tr != nil && (n+1)%every == 0 {
			sp = tr.start("stream.Snapshot", root, q.id)
			blob, err := json.Marshal(eng.Snapshot())
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			s.snapshotMB = append(s.snapshotMB, float64(len(blob))/(1<<20))
			sp = tr.start("stream.Sketches", root, q.id)
			eng.Sketches()
			tr.end(sp)
		}
	}
	tr.end(root)
	s.entries = applied
	if err := w.Sync(); err != nil {
		return nil, err
	}
	return parseMetrics(registryText(reg))
}

// replayProbe times journal.Replay + journal.DecodeEntry over a journal.
func replayProbe(s *suite, dir string) error {
	n := 0
	start := time.Now()
	_, err := journal.Replay(dir, 1, func(_ uint64, payload []byte) error {
		if _, err := journal.DecodeEntry(payload); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	s.replayRate = float64(n) / time.Since(start).Seconds()
	return nil
}

// compactInto compacts a journal into retention blocks, stamping engine
// fingerprints with the (warm) parser p.
func compactInto(walDir, blockDir string, p *parsedlog.Parser) error {
	st, err := colstore.Open(colstore.Options{Dir: blockDir})
	if err != nil {
		return err
	}
	_, err = st.CompactWALDir(walDir, true, func(stmt string) colstore.Classification {
		pe := p.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		return colstore.Classification{EngineFP: pe.Info.Fingerprint}
	})
	return err
}

// historyProbe times the index-plus-columns read a /history query does:
// colstore.ReadBlockIndex and Block.LoadColumns over every block.
func historyProbe(s *suite, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for k := 0; k < readProbes; k++ {
		start := time.Now()
		blocks := 0
		for _, p := range paths {
			b, err := colstore.ReadBlockIndex(p)
			if err != nil {
				continue // not a block file
			}
			if _, _, err := b.LoadColumns(); err != nil {
				return err
			}
			blocks++
		}
		if blocks == 0 {
			return fmt.Errorf("history probe: no retention blocks in %s", dir)
		}
		s.scanMS = append(s.scanMS, ms(time.Since(start)))
	}
	return nil
}

// stageProbes calls the batch stage functions in core.Run's order, then
// times sqlclean.Clean at GOMAXPROCS workers and serially.
func stageProbes(s *suite, li layerInput) error {
	tr := newTracer()
	workers := runtime.GOMAXPROCS(0)
	cat := schema.SkyServer()
	root := tr.start("stages", -1, -1)
	sp := tr.start("logmodel.ReadTSV", root, -1)
	f, err := os.Open(li.logPath)
	if err != nil {
		return err
	}
	l, err := logmodel.ReadTSV(f)
	f.Close()
	tr.end(sp)
	if err != nil {
		return err
	}
	s.stageN = len(l)
	p := parsedlog.NewParser()
	sp = tr.start("parsedlog.ParseParallel", root, -1)
	all, _ := p.ParseParallel(l, workers)
	tr.end(sp)
	sel := all.Selects()
	sp = tr.start("dedup.RemoveShardedIndexed", root, -1)
	pre, kept, _ := dedup.RemoveShardedIndexed(sel.Raw(), time.Second, workers)
	tr.end(sp)
	parsed := sel.Subset(kept)
	sp = tr.start("session.BuildParallel", root, -1)
	sessions := session.BuildParallel(pre, session.Options{MaxGap: sessionGap, SplitOnLabel: true}, workers)
	tr.end(sp)
	sp = tr.start("pattern.TemplatesParallel", root, -1)
	templates := pattern.TemplatesParallel(parsed, workers)
	pattern.SequencesParallel(parsed, sessions, 3, workers)
	tr.end(sp)
	sp = tr.start("pattern.ClassifySWSParallel", root, -1)
	pattern.ClassifySWSParallel(templates, len(pre), pattern.DefaultSWSOptions(), workers)
	tr.end(sp)
	sp = tr.start("overlap.ClusterBoxesFastGrid", root, -1)
	boxes := make([]overlap.Box, len(parsed))
	for i, pe := range parsed {
		if pe.Info == nil {
			boxes[i] = overlap.Box{Tables: map[string]bool{}, Dims: map[string]overlap.Dim{}}
		} else {
			boxes[i] = overlap.FromInfo(pe.Info)
		}
	}
	overlap.ClusterBoxesFastGrid(boxes, batchConfig.ClusterThreshold, workers, &s.clusterCtr)
	tr.end(sp)
	reg := antipattern.DefaultRegistry(cat, antipattern.Options{MinRun: 2, RequireKeyColumn: true})
	sp = tr.start("antipattern.DetectParallel", root, -1)
	instances := reg.DetectParallel(parsed, sessions, workers)
	tr.end(sp)
	sp = tr.start("rewrite.Apply", root, -1)
	rewrite.Apply(parsed, instances, rewrite.DefaultSolvers(cat))
	tr.end(sp)
	tr.end(root)
	s.stages = tr.snapshot()

	all, sel, parsed, pre, boxes, sessions, instances = nil, nil, nil, nil, nil, nil, nil
	runtime.GC()
	start := time.Now()
	if _, err := sqlclean.Clean(l, batchConfig); err != nil {
		return err
	}
	s.cleanPar = time.Since(start)
	runtime.GC()
	if _, s.cleanSer, err = serialClean(l); err != nil {
		return err
	}
	return nil
}

// layerMetrics turns the traced drive and the suite into the per-layer
// metrics and prints the ledger. batch says whether the workload's own work
// is the batch stage sequence (batch-clean) or the ingest replay.
func layerMetrics(rep *report, d *drive, client []span, s *suite, batch bool) {
	rep.ops(d.attempted, d.failed)
	for _, p := range d.problems {
		rep.res.Correct = false
		rep.note("CHECK FAILED: %s", p)
	}
	replaySelf := byName(s.replay, selfTimes(s.replay))
	stageSelf := byName(s.stages, selfTimes(s.stages))
	replayDur := byName(s.replay, durations(s.replay))
	per := func(name string, unit time.Duration) float64 {
		return float64(sum(replayDur[name])) / float64(unit) / float64(max(1, s.entries))
	}
	stageMS := func(name string) float64 { return ms(sum(stageSelf[name])) }

	rep.set("logmodel.decode_ns_per_entry", per("logmodel.ScanTSVLines", time.Nanosecond), "ns", len(replayDur["logmodel.ScanTSVLines"]))
	rep.set("logmodel.read_ms", stageMS("logmodel.ReadTSV"), "ms", 1)

	// server.ack_self: each client ack minus the same request's decode and
	// journal spans from the in-process replay.
	layerOf := map[int]time.Duration{}
	for _, sp := range s.replay {
		switch sp.Name {
		case "logmodel.ScanTSVLines", "journal.AppendBatch", "journal.Commit":
			layerOf[sp.Req] += sp.dur()
		}
	}
	var ackSelf []float64
	reads := map[string][]float64{}
	for _, sp := range client {
		switch {
		case sp.Name == "client.ack":
			ackSelf = append(ackSelf, ms(sp.dur()-layerOf[sp.Req]))
		case strings.HasPrefix(sp.Name, "client.read."):
			reads[strings.TrimPrefix(sp.Name, "client.read.")] = append(reads[strings.TrimPrefix(sp.Name, "client.read.")], ms(sp.dur()))
		}
	}
	for name, v := range d.readsBy { // in-process reads (batch-clean)
		if _, ok := reads[name]; !ok {
			reads[name] = v
		}
	}
	if _, ok := reads["history"]; !ok {
		reads["history"] = s.scanMS // no retention on this workload's server: the scan /history runs
	}
	rep.set("server.ack_self_ms_p50", median(ackSelf), "ms", len(ackSelf))
	rep.set("server.refused_ratio", float64(d.refused)/float64(max(1, d.offered)), "ratio", d.offered)
	rep.set("server.queue_depth_p95", percentile(d.qdepth, 0.95), "entries", len(d.qdepth))
	for _, name := range []string{"report", "toplist", "clusters", "history"} {
		rep.set("server."+name+"_ms_p50", median(reads[name]), "ms", len(reads[name]))
	}

	rep.set("journal.append_ns_per_entry", per("journal.AppendBatch", time.Nanosecond), "ns", len(replayDur["journal.AppendBatch"]))
	commits := msList(replayDur["journal.Commit"])
	rep.set("journal.commit_ms_p50", median(commits), "ms", len(commits))
	rep.set("journal.commit_ms_p99", percentile(commits, 0.99), "ms", len(commits))
	fsyncs, entries := d.deltas["journal_fsync_ns_count"], d.deltas["journal_appends_total"]
	if entries == 0 { // the daemon keeps no journal here: the in-process one
		fsyncs, entries = s.journalMet["journal_fsync_ns_count"], s.journalMet["journal_appends_total"]
	}
	rep.set("journal.fsyncs_per_1k_entries", 1000*fsyncs/max(1, entries), "fsyncs/1k", int(entries))
	rep.set("journal.entries_per_fsync", entries/max(1, fsyncs), "entries", int(fsyncs))
	rep.set("journal.replay_entries_per_s", s.replayRate, "entries/s", 1)

	rep.set("parsedlog.hit_ratio", float64(s.hits)/float64(max(1, s.lookups)), "ratio", s.lookups)
	rep.set("parsedlog.miss_us", s.missUS, "us", s.lookups-s.hits)
	rep.set("parsedlog.hit_ns", s.hitNS, "ns", s.lookups)
	rep.set("parsedlog.retained_mb", s.retainedMB, "MB", 1)
	rep.set("sqlparser.parse_us", s.parseUS, "us", min(distinctProbes, s.lookups-s.hits))
	rep.set("skeleton.analyze_us", s.analyzeUS, "us", min(distinctProbes, s.lookups-s.hits))
	rep.set("parsedlog.batch_parse_ms", stageMS("parsedlog.ParseParallel"), "ms", 1)
	rep.set("dedup.remove_ms", stageMS("dedup.RemoveShardedIndexed"), "ms", 1)
	rep.set("session.build_ms", stageMS("session.BuildParallel"), "ms", 1)
	rep.set("pattern.templates_ms", stageMS("pattern.TemplatesParallel"), "ms", 1)
	rep.set("pattern.sws_ms", stageMS("pattern.ClassifySWSParallel"), "ms", 1)
	rep.set("overlap.cluster_ms", stageMS("overlap.ClusterBoxesFastGrid"), "ms", 1)
	rep.set("overlap.comparisons_avoided_ratio", float64(s.clusterCtr.Avoided())/float64(max(1, s.clusterCtr.ScanComparisons)), "ratio", int(s.clusterCtr.ScanComparisons))
	rep.set("antipattern.detect_ms", stageMS("antipattern.DetectParallel"), "ms", 1)
	rep.set("rewrite.apply_ms", stageMS("rewrite.Apply"), "ms", 1)

	rep.set("stream.apply_ns_per_entry", per("stream.AddShardBatch", time.Nanosecond), "ns", len(replayDur["stream.AddShardBatch"]))
	in := d.deltas["stream_entries_in_total"]
	dup, out := d.deltas["stream_duplicates_total"]/max(1, in), d.deltas["stream_entries_out_total"]/max(1, in)
	rep.set("stream.duplicate_ratio", dup, "ratio", int(in))
	rep.set("stream.out_ratio", out, "ratio", int(in))
	rep.set("stream.sessions_closed_in_load", d.deltas["stream_sessions_emitted_total"], "count", 1)
	rep.set("stream.open_sessions_p50", median(d.open), "count", len(d.open))
	snaps := msList(replayDur["stream.Snapshot"])
	rep.set("stream.snapshot_ms", median(snaps), "ms", len(snaps))
	rep.set("stream.snapshot_mb", median(s.snapshotMB), "MB", len(s.snapshotMB))
	merges := msList(replayDur["stream.Sketches"])
	rep.set("sketch.merge_ms", median(merges), "ms", len(merges))
	rep.set("colstore.history_scan_ms", median(s.scanMS), "ms", len(s.scanMS))
	rep.set("parallel.speedup_vs_serial", s.cleanSer.Seconds()/s.cleanPar.Seconds(), "ratio", 1)
	rep.set("driver.late_ms_p99", percentile(d.late, 0.99), "ms", len(d.late))
	rep.set("driver.ack_p90_ms", percentile(d.acks, 0.9), "ms", len(d.acks))
	rep.set("driver.ack_p99_ms", percentile(d.acks, 0.99), "ms", len(d.acks))
	rep.set("driver.read_p95_ms", percentile(d.reads, 0.95), "ms", len(d.reads))

	// The ledger: each layer's self time per entry next to the end-to-end
	// time per entry of the workload's own work.
	own, ownSelf, ownN, traced, untraced := s.replay, replaySelf, s.entries, s.replay[0].dur(), s.untracedRep
	if batch {
		own, ownSelf, ownN, traced, untraced = s.stages, stageSelf, s.stageN, s.stages[0].dur(), s.cleanPar
	}
	rep.set("ledger.unexplained_ratio", ledger(rep, own, ownSelf, ownN), "ratio", len(own))
	rep.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), "ratio", 2)
	if !batch {
		ledger(rep, s.stages, stageSelf, s.stageN)
	} else {
		ledger(rep, s.replay, replaySelf, s.entries)
	}
	if d.rates != nil {
		rep.note("ledger: traced drive end to end %.0f ns/entry wall (%.1f entries/s)", 1e9/median(d.rates), median(d.rates))
	}
	rep.note("ledger: client read p50s are %v", readSummary(reads))
}

// ledger prints one ledger table and returns its unexplained share: one
// minus the layers' self time over the root span's duration. More than 15%
// unexplained flags the workload.
func ledger(rep *report, spans []span, self map[string][]time.Duration, n int) float64 {
	root := spans[0]
	total := root.dur()
	names := make([]string, 0, len(self))
	for name := range self {
		if name != root.Name {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return sum(self[names[i]]) > sum(self[names[j]]) })
	rep.note("ledger %s: %d entries, end to end %.1f ms = %.0f ns/entry", root.Name, n, ms(total), float64(total)/float64(max(1, n)))
	var explained time.Duration
	for _, name := range names {
		t := sum(self[name])
		explained += t
		rep.note("ledger %s   %-30s self %10.2f ms %10.1f ns/entry %6.1f%% calls=%d",
			root.Name, name, ms(t), float64(t)/float64(max(1, n)), 100*t.Seconds()/total.Seconds(), len(self[name]))
	}
	unexplained := 1 - explained.Seconds()/total.Seconds()
	flag := ""
	if unexplained > 0.15 {
		flag = "  FLAG: more than 15% unexplained"
	}
	rep.note("ledger %s   unexplained %.1f%%%s", root.Name, 100*unexplained, flag)
	return unexplained
}

func readSummary(reads map[string][]float64) string {
	var parts []string
	for _, name := range []string{"report", "toplist", "clusters", "history"} {
		parts = append(parts, fmt.Sprintf("%s=%.2fms(n=%d)", name, median(reads[name]), len(reads[name])))
	}
	return strings.Join(parts, " ")
}

func registryText(reg *obs.Registry) []byte {
	var b bytes.Buffer
	_ = reg.WritePrometheus(&b) // bytes.Buffer writes cannot fail
	return b.Bytes()
}
