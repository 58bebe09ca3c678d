// Package server is the log-cleaning service: a long-running HTTP ingestion
// daemon wrapped around the sharded streaming engine. The paper cleans the
// SkyServer log after the fact; the log itself is produced continuously by
// live web and bot traffic, so the service accepts raw entries as they
// happen (POST /ingest, NDJSON or TSV lines), pushes them through per-shard
// bounded queues into stream.Sharded, and keeps an incremental report
// (GET /report) current the whole time.
//
// Flow control is explicit: every shard has one bounded queue and one drain
// goroutine (one goroutine per user partition preserves the engine's
// per-user ordering contract), enqueue never blocks, and a full queue turns
// the request into 429 so the producer — not the daemon's memory — absorbs
// the burst. Shutdown is graceful by construction: Close stops new requests,
// waits for in-flight ones, drains every queue, then flushes all open
// sessions through the engine — an accepted entry is never dropped.
//
// Durability is opt-in via Config.DataDir: every accepted entry is framed
// into a write-ahead journal (internal/journal) before the request is
// acknowledged, and a periodic + on-drain snapshot of the engine state
// truncates the journal behind it. A restarted daemon restores the latest
// snapshot and replays the journal's tail through the engine, so open
// sessions, dedup windows and template aggregates survive a crash — see
// durability.go.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlclean/internal/buildinfo"
	"sqlclean/internal/colstore"
	"sqlclean/internal/core"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/stream"
)

// Config configures the service.
type Config struct {
	// Stream configures the sharded engine (shard count, session gap,
	// duplicate window, ...). Stream.Config.Metrics and Stream.Config.Parser
	// default to the server's own registry and shared parser.
	Stream stream.ShardedConfig
	// QueueSize is the per-shard ingest queue capacity (0 selects 1024).
	// Total buffered entries are bounded by Shards × QueueSize.
	QueueSize int
	// MaxBodyBytes caps one request body (0 selects 32 MiB).
	MaxBodyBytes int64
	// Metrics is the observability registry served on /metrics. Nil creates
	// a fresh one.
	Metrics *obs.Registry
	// Logger receives structured diagnostics (slow requests, snapshot and
	// journal events). Nil discards them.
	Logger *slog.Logger
	// SlowRequest is the ingest latency at or above which a completed
	// request logs a warn-level line with its trace ID and stage timings
	// (0 selects 1s; negative disables slow-request logging).
	SlowRequest time.Duration
	// Emit, when non-nil, receives every batch of cleaned entries as
	// sessions close (and the final flush). Calls are serialized. With a
	// DataDir, sessions closed between the last snapshot and a crash are
	// re-emitted on replay: Emit delivery is at-least-once across restarts.
	Emit func(logmodel.Log)

	// ClustersDisabled turns off the live overlap-clustering surface
	// (GET /clusters). By default the daemon keeps a table of the distinct
	// predicate boxes of the clean log it emits and clusters them on
	// demand.
	ClustersDisabled bool
	// ClusterThreshold is the default overlap-distance threshold for
	// GET /clusters, in (0, 1] (0 selects 0.9, the paper's operating point;
	// New refuses any other value outside the range); requests can
	// override it per call.
	ClusterThreshold float64

	// DataDir enables crash durability: it holds the write-ahead journal
	// (DataDir/wal-*.log) and engine snapshots (DataDir/snapshot-*.json).
	// Empty keeps the daemon purely in-memory.
	DataDir string
	// Fsync is the journal fsync policy (empty selects journal.FsyncInterval).
	Fsync journal.FsyncPolicy
	// FsyncInterval is the cadence for journal.FsyncInterval (0 selects the
	// journal default).
	FsyncInterval time.Duration
	// SegmentBytes is the journal segment rotation size (0 selects the
	// journal default).
	SegmentBytes int64
	// SnapshotInterval is the periodic checkpoint cadence (0 selects 5
	// minutes; negative disables periodic snapshots — the on-drain snapshot
	// still runs). Each snapshot truncates the journal behind it.
	SnapshotInterval time.Duration

	// Retain enables the columnar retention store (requires DataDir): WAL
	// segments a snapshot has made disposable are compacted into compressed
	// columnar blocks instead of deleted, and GET /history serves template
	// trend queries from them long after the journal is gone.
	Retain bool
	// RetainDir is the block directory (empty selects DataDir/colstore).
	RetainDir string
	// RetainMaxBytes caps total block bytes; the oldest blocks are evicted
	// when compaction pushes the store over. 0 keeps everything.
	RetainMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Minute
	}
	return c
}

// Server is the ingestion daemon. Create with New, expose Handler over an
// http.Server, and Close to flush.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	log    *slog.Logger
	reqlog *obs.RequestLog
	eng    *stream.Sharded
	// queues carry batches: one request's entries for one shard travel as a
	// single batch — one channel send, one drain receive per (request,
	// shard) instead of one of each per entry.
	queues []chan batch
	// qMu serializes same-shard enqueues so that, with a journal, a shard's
	// frame order in the WAL equals its queue order — the invariant that
	// makes a replay apply entries exactly as the crashed run did. A batch
	// flush touching several shards locks them in ascending index order.
	qMu []sync.Mutex
	// stagers are the requests' staging buffers, reused across requests.
	stagers sync.Pool

	drainWG  sync.WaitGroup // drain goroutines
	ingestWG sync.WaitGroup // in-flight ingest requests
	// closeMu orders ingest admission against Close: handleIngest joins
	// ingestWG only under the read lock with closed still false, and Close
	// flips closed under the write lock — so ingestWG.Wait never races an
	// Add from zero (the documented sync.WaitGroup misuse).
	closeMu  sync.RWMutex
	closed   atomic.Bool
	closeOne sync.Once
	seq      atomic.Int64
	start    time.Time
	// version is the build stamp /healthz and /report carry.
	version string
	// emitMu serializes Config.Emit calls.
	emitMu sync.Mutex

	// Durability state; jw is nil without Config.DataDir (see durability.go).
	jw *journal.Writer
	// store is the columnar retention store; nil without Config.Retain.
	store *colstore.Store
	// enqMu freezes the enqueue path while a snapshot captures engine state;
	// pending counts entries enqueued but not yet applied by a drain.
	enqMu    sync.RWMutex
	pending  atomic.Int64
	snapMu   sync.Mutex
	snapStop chan struct{}
	snapWG   sync.WaitGroup
	replayed int
	// lastSnapshotNS is the wall-clock unix nanos of the newest on-disk
	// snapshot (written this run, or the restored file's mtime); 0 = none.
	lastSnapshotNS atomic.Int64

	mRequests      *obs.Counter
	mAccepted      *obs.Counter
	mRejectedFull  *obs.Counter
	mRejectedOrder *obs.Counter
	mRejectedSkew  *obs.Counter
	mBadLines      *obs.Counter
	mEmitted       *obs.Counter
	qDepth         *obs.Gauge
	// qDepthShard mirrors qDepth per partition: a single hot shard (one
	// pathological user) is invisible in the aggregate gauge.
	qDepthShard []*obs.Gauge

	mReplayed     *obs.Counter
	mReplayRej    *obs.Counter
	mSnapshots    *obs.Counter
	mSnapshotErrs *obs.Counter
	mJournalErrs  *obs.Counter
	gSnapshotLSN  *obs.Gauge

	// boxes is the distinct-predicate-box table behind GET /clusters; nil
	// when Config.ClustersDisabled is set.
	boxes           *boxTable
	mBoxesClustered *obs.Counter
	mClusterCells   *obs.Counter
	mClusterAvoided *obs.Counter
	gDistinctBoxes  *obs.Gauge
}

// New builds the engine, restores durable state when Config.DataDir is set
// (snapshot restore + journal replay, before any traffic is admitted),
// starts one drain goroutine per shard and returns the server, ready for
// Handler.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Retain && cfg.DataDir == "" {
		return nil, errors.New("server: retention (-retain) requires a data dir (-data-dir)")
	}
	if cfg.ClusterThreshold != 0 && !validThreshold(cfg.ClusterThreshold) {
		return nil, fmt.Errorf("server: cluster threshold (-cluster-threshold) %g is not in (0, 1]", cfg.ClusterThreshold)
	}
	if cfg.Stream.Metrics == nil {
		cfg.Stream.Metrics = cfg.Metrics
	}
	if cfg.Stream.Parser == nil {
		// One parse cache for the whole daemon: every shard, and any batch
		// run sharing this parser, sees one hit/miss account.
		cfg.Stream.Parser = parsedlog.NewParser()
		cfg.Stream.Parser.Instrument(cfg.Stream.Metrics)
	}
	s := &Server{
		cfg:      cfg,
		version:  buildinfo.String(),
		reg:      cfg.Metrics,
		log:      cfg.Logger,
		reqlog:   obs.NewRequestLog(0, 0),
		eng:      stream.NewSharded(cfg.Stream),
		start:    time.Now(),
		snapStop: make(chan struct{}),

		mRequests:      cfg.Metrics.Counter("ingest_requests_total"),
		mAccepted:      cfg.Metrics.Counter("ingest_accepted_total"),
		mRejectedFull:  cfg.Metrics.Counter("ingest_rejected_full_total"),
		mRejectedOrder: cfg.Metrics.Counter("ingest_rejected_order_total"),
		mRejectedSkew:  cfg.Metrics.Counter("ingest_rejected_skew_total"),
		mBadLines:      cfg.Metrics.Counter("ingest_bad_lines_total"),
		mEmitted:       cfg.Metrics.Counter("server_emitted_entries_total"),
		qDepth:         cfg.Metrics.Gauge("ingest_queue_depth"),

		mReplayed:     cfg.Metrics.Counter("journal_replayed_entries_total"),
		mReplayRej:    cfg.Metrics.Counter("journal_replay_rejected_total"),
		mSnapshots:    cfg.Metrics.Counter("snapshots_written_total"),
		mSnapshotErrs: cfg.Metrics.Counter("snapshot_errors_total"),
		mJournalErrs:  cfg.Metrics.Counter("journal_append_errors_total"),
		gSnapshotLSN:  cfg.Metrics.Gauge("snapshot_last_lsn"),

		mBoxesClustered: cfg.Metrics.Counter("cluster_boxes_clustered_total"),
		mClusterCells:   cfg.Metrics.Counter("cluster_cells_probed_total"),
		mClusterAvoided: cfg.Metrics.Counter("cluster_comparisons_avoided_total"),
		gDistinctBoxes:  cfg.Metrics.Gauge("cluster_distinct_boxes"),
	}
	if !cfg.ClustersDisabled {
		// Created before durability replay so re-emitted sessions populate
		// the table exactly like live traffic.
		s.boxes = &boxTable{}
	}
	if cfg.DataDir != "" {
		// Restore + replay runs before the drain goroutines exist, so the
		// engine is applied to strictly in journal order.
		if err := s.openDurability(); err != nil {
			return nil, err
		}
	}
	s.queues = make([]chan batch, s.eng.NumShards())
	s.qMu = make([]sync.Mutex, len(s.queues))
	s.qDepthShard = make([]*obs.Gauge, len(s.queues))
	for i := range s.queues {
		// Capacity QueueSize is in batches, but admission bounds the shard's
		// queued entries to QueueSize and every batch holds at least one
		// entry, so batches in flight can never exceed the capacity either —
		// the dispatch-side send is provably non-blocking.
		s.queues[i] = make(chan batch, cfg.QueueSize)
		s.qDepthShard[i] = cfg.Metrics.Gauge(fmt.Sprintf("ingest_queue_depth_shard%03d", i))
		s.drainWG.Add(1)
		go s.drain(i)
	}
	s.stagers.New = func() any { return newStager(s) }
	if s.jw != nil && cfg.SnapshotInterval > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Engine exposes the underlying sharded engine (stats, templates).
func (s *Server) Engine() *stream.Sharded { return s.eng }

// Replayed reports how many journal entries the server re-applied at startup.
func (s *Server) Replayed() int { return s.replayed }

// batch is one ingest queue element: one request's entries for one shard,
// in input order, plus that request's trace, so the drain can stamp the
// async emit stage. Traces ride the queue, never the WAL — replayed entries
// carry none.
type batch struct {
	entries []logmodel.Entry
	tr      *obs.ReqTrace
}

// drain is shard i's single consumer: it applies the shard's queue in
// order and emits cleaned sessions as they close. Sessions close on the
// shard's own watermark, which only the entries it applies can raise, so
// what the shard emits depends on its queue's contents and order, not on
// how far the other drains have got.
func (s *Server) drain(i int) {
	defer s.drainWG.Done()
	for b := range s.queues[i] {
		// The whole batch leaves the queue at once. Admission reads these
		// gauges as its capacity budget, so they drop at receive time.
		s.qDepth.Add(-int64(len(b.entries)))
		s.qDepthShard[i].Add(-int64(len(b.entries)))
		for _, e := range b.entries {
			out, err := s.eng.AddShardParsed(i, e)
			if err != nil {
				switch {
				case errors.Is(err, stream.ErrFutureSkew):
					// Corrupted far-future timestamp: the watermark guard
					// refused it before it could poison every shard's sessions.
					s.mRejectedSkew.Inc()
				default:
					// Out-of-order beyond the session gap: the engine's ordering
					// contract rejects it. Counted, never fatal to the stream.
					s.mRejectedOrder.Inc()
				}
			} else {
				s.emit(out)
			}
			// Applied (and emitted): only now may a snapshot consider this
			// entry covered. Decremented after emit so a quiescence wait also
			// proves the Emit callback is idle.
			b.tr.DonePending("emit")
			s.pending.Add(-1)
		}
	}
}

// emit hands a batch of cleaned entries, with the parse results the engine
// holds for them, to the /clusters table and to Config.Emit.
func (s *Server) emit(l parsedlog.Log) {
	if len(l) == 0 {
		return
	}
	s.mEmitted.Add(int64(len(l)))
	if s.boxes != nil {
		s.observeBoxes(l)
	}
	if s.cfg.Emit != nil {
		s.emitMu.Lock()
		defer s.emitMu.Unlock()
		s.cfg.Emit(l.Raw())
	}
}

// Close gracefully shuts the pipeline down: refuse new ingests, wait for
// in-flight requests, drain every queue, then flush all open sessions
// through the engine (the final cleaned entries go to Emit). With a DataDir
// it then writes a final snapshot — a clean restart restores instead of
// replaying — and closes the journal. Safe to call more than once. The
// context bounds the wait; on expiry the drain keeps running in the
// background and ctx.Err is returned.
func (s *Server) Close(ctx context.Context) error {
	var err error
	s.closeOne.Do(func() {
		// The write lock orders this flip against every in-flight
		// handleIngest admission: after Unlock, either the handler saw
		// closed and never joined ingestWG, or it joined before we Wait.
		s.closeMu.Lock()
		s.closed.Store(true)
		s.closeMu.Unlock()
		close(s.snapStop)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Enqueues are non-blocking, so in-flight requests finish as
			// fast as they can read their bodies; only then is closing the
			// queues free of lost sends.
			s.ingestWG.Wait()
			for _, q := range s.queues {
				close(q)
			}
			s.drainWG.Wait()
			s.emit(s.eng.CloseParsed())
			s.snapWG.Wait()
			s.closeDurability()
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	})
	return err
}

// Handler returns the service mux:
//
//	POST /ingest   NDJSON (default) or TSV log lines; 429 on full queue
//	GET  /report   incremental cleaning report (JSON)
//	GET  /clusters overlap clustering of observed predicate boxes (§6.9)
//	GET  /healthz  liveness, version, queue, session and watermark state
//	GET  /statusz  self-contained human status page (?format=text for plain)
//	GET  /debug/requests   recent / slowest request traces (?view=slow)
//	/metrics, /debug/pprof/, /debug/vars   the obs debug surface
//
// Every endpoint is wrapped in per-endpoint latency/status/bytes middleware
// feeding the registry (http_<endpoint>_* series).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.Handler) {
		mux.Handle(pattern, obs.InstrumentHandler(s.reg, endpoint, h))
	}
	handle("POST /ingest", "ingest", http.HandlerFunc(s.handleIngest))
	handle("GET /report", "report", http.HandlerFunc(s.handleReport))
	handle("GET /clusters", "clusters", http.HandlerFunc(s.handleClusters))
	handle("GET /toplist", "toplist", http.HandlerFunc(s.handleToplist))
	handle("GET /history", "history", http.HandlerFunc(s.handleHistory))
	handle("GET /healthz", "healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /statusz", "statusz", http.HandlerFunc(s.handleStatusz))
	// More specific than the debug mux's /debug/ subtree, so it wins.
	handle("GET /debug/requests", "debug_requests", s.reqlog)
	debug := obs.NewDebugMux(s.reg)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	return mux
}

// wireEntry is the NDJSON ingest record.
type wireEntry struct {
	Time      string `json:"time"`
	User      string `json:"user"`
	Session   string `json:"session"`
	Rows      *int64 `json:"rows"`
	Statement string `json:"statement"`
}

// timeFormats accepted on ingest, tried in order.
var timeFormats = []string{time.RFC3339Nano, logmodel.TimeFormat}

func (w wireEntry) entry() (logmodel.Entry, error) {
	if w.Statement == "" {
		return logmodel.Entry{}, errors.New("missing statement")
	}
	var t time.Time
	var err error
	for _, f := range timeFormats {
		if t, err = time.Parse(f, w.Time); err == nil {
			break
		}
	}
	if err != nil {
		return logmodel.Entry{}, fmt.Errorf("bad time %q", w.Time)
	}
	rows := int64(-1)
	if w.Rows != nil {
		rows = *w.Rows
	}
	return logmodel.Entry{Time: t, User: w.User, Session: w.Session, Rows: rows, Statement: w.Statement}, nil
}

// errQueueFull aborts an ingest scan when a shard queue rejects an entry.
var errQueueFull = errors.New("ingest queue full")

// errJournal aborts an ingest scan when the write-ahead journal rejects an
// append (disk full, I/O error): the entries framed before the failure are
// queued and acknowledged, everything after it is dropped — the journal and
// the queues always agree on the accepted prefix.
var errJournal = errors.New("journal append failed")

// flushEvery bounds a request's staging buffer: decoded entries are
// dispatched to the shards (and the journal) in chunks of at most this many,
// so one huge request body cannot defer admission-control or durability
// decisions indefinitely.
const flushEvery = 512

// stager accumulates one request's decoded entries and dispatches them in
// per-shard batches: one qMu acquisition, one journal AppendBatch, one
// channel send and one set of pending/qDepth updates per (flush, shard),
// instead of one of each per entry. Requests take stagers from the server's
// pool, so its buffers are reused.
type stager struct {
	s        *Server
	tr       *obs.ReqTrace
	accepted int // entries dispatched and journaled across all flushes
	failLine int // input line of the first rejected entry (0 = none)

	// The staged chunk, in input order: the entries, which the journal
	// appends as they stand, and each one's shard and 1-based input line.
	entries []logmodel.Entry
	shards  []int
	lines   []int

	// Per-shard scratch, reused across flushes.
	room    []int // remaining queue capacity during a flush
	count   []int // entries bound for each shard in this flush
	touched []int // shard indexes this flush uses, ascending
}

func newStager(s *Server) *stager {
	n := len(s.queues)
	return &stager{
		s:       s,
		entries: make([]logmodel.Entry, 0, flushEvery),
		shards:  make([]int, 0, flushEvery),
		lines:   make([]int, 0, flushEvery),
		room:    make([]int, n),
		count:   make([]int, n),
	}
}

// add stages one decoded entry, flushing when the chunk is full.
func (st *stager) add(e logmodel.Entry, line int) error {
	st.entries = append(st.entries, e)
	st.shards = append(st.shards, st.s.eng.ShardFor(e.User))
	st.lines = append(st.lines, line)
	if len(st.entries) >= flushEvery {
		return st.flush()
	}
	return nil
}

// finish flushes whatever remains staged at the end of the scan.
func (st *stager) finish() error { return st.flush() }

// flush dispatches the staged chunk. Under the snapshot freeze and the
// touched shards' locks (ascending order — the only multi-lock path, so no
// ordering cycle exists) it:
//
//  1. computes each shard's remaining capacity from the depth gauge and
//     finds the global cut: the first staged entry, in input order, whose
//     shard has no room (everything before it is admitted — prefix-exact
//     429 accounting across shards);
//  2. assigns the admitted prefix its seq numbers with one atomic add;
//  3. frames the prefix into the journal with one AppendBatch call (an I/O
//     error shortens the prefix to what the journal actually holds);
//  4. sends each shard its batch — one send, one AddPending, one set of
//     gauge updates per shard.
//
// Journal-before-queue: an entry is only ever dispatched after its frame is
// buffered in the WAL, so queue order equals WAL order per shard and a
// replayed journal re-applies exactly what the queues saw.
func (st *stager) flush() error {
	n := len(st.entries)
	if n == 0 {
		return nil
	}
	s := st.s
	defer func() {
		clear(st.entries) // a pooled stager must not pin the statements
		st.entries, st.shards, st.lines = st.entries[:0], st.shards[:0], st.lines[:0]
	}()

	st.touched = st.touched[:0]
	for _, i := range st.shards {
		if st.count[i] == 0 {
			st.touched = append(st.touched, i)
		}
		st.count[i]++
	}
	sort.Ints(st.touched)

	// Read side of the snapshot freeze: while a checkpoint captures engine
	// state, no new entry may slip past the recorded journal position.
	s.enqMu.RLock()
	defer s.enqMu.RUnlock()
	for _, i := range st.touched {
		s.qMu[i].Lock()
	}
	defer func() {
		for _, i := range st.touched {
			s.qMu[i].Unlock()
		}
	}()

	// The depth gauge is incremented under qMu (by flushes) and decremented
	// by the drain at batch receive, so reading it here is conservative:
	// never below the true queue population. room is therefore a safe
	// admission budget.
	for _, i := range st.touched {
		st.room[i] = s.cfg.QueueSize - int(s.qDepthShard[i].Value())
	}
	cut, full := n, false
	for k, i := range st.shards {
		if st.room[i] <= 0 {
			cut, full = k, true
			break
		}
		st.room[i]--
	}

	journaled := cut
	var jerr error
	if cut > 0 {
		base := s.seq.Add(int64(cut)) - int64(cut)
		for k := range st.entries[:cut] {
			st.entries[k].Seq = base + int64(k)
		}
		if s.jw != nil {
			p, _, err := s.jw.AppendBatch(st.entries[:cut])
			if err != nil {
				s.mJournalErrs.Inc()
				journaled = p
				jerr = fmt.Errorf("%w: %v", errJournal, err)
			}
		}
		for _, i := range st.touched {
			// count covers the whole staged chunk; when the cut (or a journal
			// error) shortened the dispatched prefix, recount over it so no
			// shard gets an empty — or short-capped — batch.
			c := st.count[i]
			if journaled < n {
				c = 0
				for _, j := range st.shards[:journaled] {
					if j == i {
						c++
					}
				}
			}
			if c == 0 {
				continue
			}
			b := batch{entries: make([]logmodel.Entry, 0, c), tr: st.tr}
			for k, j := range st.shards[:journaled] {
				if j == i {
					b.entries = append(b.entries, st.entries[k])
				}
			}
			// Register the async completions before the send: the drain may
			// apply the batch the instant it lands, and its DonePending calls
			// must not race the counter to zero ahead of this registration.
			// The gauges rise before the send too, so the admission budget
			// above never under-counts a batch the drain already received.
			st.tr.AddPending(int64(c))
			s.pending.Add(int64(c))
			s.qDepth.Add(int64(c))
			s.qDepthShard[i].Add(int64(c))
			s.queues[i] <- b // non-blocking by construction (see New)
		}
		s.mAccepted.Add(int64(journaled))
		st.accepted += journaled
	}
	for _, i := range st.touched {
		st.count[i] = 0
	}

	switch {
	case jerr != nil:
		// The journal failure line precedes any queue-full line.
		st.failLine = st.lines[journaled]
		return jerr
	case full:
		st.failLine = st.lines[cut]
		s.mRejectedFull.Inc()
		return errQueueFull
	}
	return nil
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
	Line     int    `json:"line,omitempty"` // 1-based line of the first failure
}

// beginIngest admits one ingest request, or reports that the server is
// draining. The closed check and the WaitGroup join happen under one read
// lock: Close flips closed under the write lock before Wait, so an Add can
// never race Wait up from zero — the panic mode of a bare Add-then-check.
func (s *Server) beginIngest() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return false
	}
	s.ingestWG.Add(1)
	return true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	// The trace honors an upstream X-Trace-Id (so a client can follow its own
	// request through the daemon's logs) and is echoed back either way.
	tr := s.reqlog.StartWithID(r.Header.Get("X-Trace-Id"))
	w.Header().Set("X-Trace-Id", tr.ID())
	admStart := time.Now()
	if !s.beginIngest() {
		tr.Stage("admission", time.Since(admStart))
		writeJSON(w, http.StatusServiceUnavailable, ingestResponse{Error: "server draining"})
		s.finishTrace(tr, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	defer s.ingestWG.Done()
	// The handler holds one pending reference for the whole request, so the
	// async emit stage can only be stamped by the drain that applies the
	// request's true last entry — never mid-scan when a queue briefly empties.
	tr.AddPending(1)
	tr.Stage("admission", time.Since(admStart))
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Content-Type"), "tab-separated") {
		format = "tsv"
	}

	scanStart := time.Now()
	accepted, line, err := s.ingestLines(body, format, tr)
	tr.Stage("enqueue", time.Since(scanStart))
	tr.SetInt("accepted", int64(accepted))
	// Group commit: one flush (and fsync, per policy) per request, before
	// any acknowledgement — including partial-failure responses, whose
	// accepted count is a promise too.
	if s.jw != nil {
		jStart := time.Now()
		cerr := s.jw.Commit()
		tr.Stage("journal", time.Since(jStart))
		if cerr != nil {
			s.mJournalErrs.Inc()
			writeJSON(w, http.StatusInternalServerError, ingestResponse{Accepted: accepted, Error: "journal commit: " + cerr.Error()})
			s.finishTrace(tr, http.StatusInternalServerError, "journal commit failed", accepted)
			return
		}
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted})
		s.finishTrace(tr, http.StatusOK, "ok", accepted)
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ingestResponse{Accepted: accepted, Error: err.Error(), Line: line})
		s.finishTrace(tr, http.StatusTooManyRequests, "queue full", accepted)
	case errors.Is(err, errJournal):
		writeJSON(w, http.StatusInternalServerError, ingestResponse{Accepted: accepted, Error: err.Error(), Line: line})
		s.finishTrace(tr, http.StatusInternalServerError, "journal append failed", accepted)
	default:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ingestResponse{Accepted: accepted, Error: err.Error(), Line: line})
			s.finishTrace(tr, http.StatusRequestEntityTooLarge, "body too large", accepted)
			return
		}
		s.mBadLines.Inc()
		writeJSON(w, http.StatusBadRequest, ingestResponse{Accepted: accepted, Error: err.Error(), Line: line})
		s.finishTrace(tr, http.StatusBadRequest, "bad line", accepted)
	}
}

// finishTrace completes an ingest trace: it freezes the synchronous duration,
// releases the handler's pending reference (letting the drain's final entry
// stamp the emit stage), and logs the request — warn with stage timings when
// it breached the slow-request threshold, debug otherwise.
func (s *Server) finishTrace(tr *obs.ReqTrace, status int, outcome string, accepted int) {
	tr.Finish(status, outcome)
	tr.DonePending("emit")
	d := tr.SyncDuration()
	slow := s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest
	if !slow && !s.log.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	attrs := []any{
		"component", "server",
		"trace_id", tr.ID(),
		"status", status,
		"outcome", outcome,
		"accepted", accepted,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if slow {
		for _, st := range tr.Snapshot().Stages {
			attrs = append(attrs, "stage_"+st.Name+"_ms", float64(st.DurationNS)/float64(time.Millisecond))
		}
		s.log.Warn("slow request", attrs...)
		return
	}
	s.log.Debug("ingest request", attrs...)
}

// ingestLines scans the body line by line — constant memory per request —
// staging decoded entries and dispatching them in per-shard batches. It
// stops at the first failure, returning the count accepted so far and the
// failing 1-based input line (real line numbers: blank lines the scanners
// skip still count, so the reported line matches the client's own view of
// its payload). Entries staged before a parse failure are still dispatched:
// they were valid, and the per-entry path accepted them too. When both a
// dispatch failure and a parse failure occur, the dispatch failure wins —
// its line is always the earlier one.
func (s *Server) ingestLines(body io.Reader, format string, tr *obs.ReqTrace) (accepted, line int, err error) {
	st := s.stagers.Get().(*stager)
	st.tr, st.accepted, st.failLine = tr, 0, 0
	defer func() {
		st.tr = nil
		s.stagers.Put(st)
	}()
	var scanErr error
	badLine := 0
	if format == "tsv" {
		lastLine := 0
		scanErr = logmodel.ScanTSVLines(body, func(lineNo int, e logmodel.Entry) error {
			lastLine = lineNo
			return st.add(e, lineNo)
		})
		if scanErr != nil {
			var le *logmodel.LineError
			switch {
			case errors.As(scanErr, &le):
				badLine = le.Line
			case errors.Is(scanErr, errQueueFull) || errors.Is(scanErr, errJournal):
				badLine = st.failLine
			default:
				badLine = lastLine + 1
			}
		}
	} else {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() && scanErr == nil {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			var we wireEntry
			if uerr := json.Unmarshal([]byte(text), &we); uerr != nil {
				scanErr, badLine = fmt.Errorf("line %d: %v", line, uerr), line
				break
			}
			e, eerr := we.entry()
			if eerr != nil {
				scanErr, badLine = fmt.Errorf("line %d: %v", line, eerr), line
				break
			}
			if aerr := st.add(e, line); aerr != nil {
				scanErr, badLine = aerr, st.failLine
				break
			}
		}
		if scanErr == nil {
			if serr := sc.Err(); serr != nil {
				scanErr, badLine = serr, line+1
			}
		}
	}
	flushErr := st.finish()
	if flushErr != nil {
		// The staged tail failed to dispatch; its line precedes any parse
		// failure the scan hit afterwards.
		return st.accepted, st.failLine, flushErr
	}
	if scanErr != nil {
		return st.accepted, badLine, scanErr
	}
	return st.accepted, 0, nil
}

// ReportPayload is the GET /report document: the engine's streaming export
// (core.ExportStream), wrapped with the daemon's own fields. Once the stream
// drains, every field the engine tracks equals the batch export's.
type ReportPayload struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	OpenSessions  int     `json:"open_sessions"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	core.StreamDoc
}

// Report assembles the current incremental report with its topTemplates
// most frequent template rows (0 selects 20). report.duration_ns is the
// server's uptime. Safe to call while ingestion runs; numbers are a
// consistent-enough snapshot for monitoring, not a barrier.
func (s *Server) Report(topTemplates int) ReportPayload {
	uptime := time.Since(s.start)
	p := ReportPayload{
		Version:       s.version,
		UptimeSeconds: uptime.Seconds(),
		OpenSessions:  s.eng.OpenSessions(),
		QueueDepth:    int(s.qDepth.Value()),
		QueueCapacity: len(s.queues) * s.cfg.QueueSize,
		StreamDoc:     core.ExportStream(s.eng),
	}
	p.Report.DurationNS = int64(uptime)
	if topTemplates <= 0 {
		topTemplates = 20
	}
	if len(p.Templates) > topTemplates {
		p.Templates = p.Templates[:topTemplates]
	}
	return p
}

// parseTop validates a ?top= query parameter: absent selects def, anything
// that is not a positive integer is a client error (silently substituting
// the default would make /report?top=abc indistinguishable from top=20).
func parseTop(r *http.Request, def int) (int, error) {
	v := r.URL.Query().Get("top")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("top must be a positive integer, got %q", v)
	}
	return n, nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	top, err := parseTop(r, 20)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.Report(top))
}

// DurabilityHealth is the durability corner of /healthz, present only when
// the daemon runs with a data directory.
type DurabilityHealth struct {
	DataDir string `json:"data_dir"`
	// JournalLSN is the LSN of the last appended frame.
	JournalLSN uint64 `json:"journal_lsn"`
	// SnapshotLSN is the journal position the last snapshot covered.
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// JournalSegments counts live WAL segment files.
	JournalSegments int `json:"journal_segments"`
	// ReplayedOnStart counts entries replayed from the journal at startup.
	ReplayedOnStart int `json:"replayed_on_start"`
	// RetainBlocks/RetainBytes describe the columnar retention store
	// (absent when retention is off).
	RetainBlocks int   `json:"retain_blocks,omitempty"`
	RetainBytes  int64 `json:"retain_bytes,omitempty"`
}

// HealthPayload is the GET /healthz document.
type HealthPayload struct {
	Status          string  `json:"status"` // "ok" or "draining"
	Version         string  `json:"version"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Shards          int     `json:"shards"`
	OpenSessions    int     `json:"open_sessions"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCapacity   int     `json:"queue_capacity"`
	EntriesIn       int     `json:"entries_in"`
	EntriesOut      int     `json:"entries_out"`
	SessionsEmitted int     `json:"sessions_emitted"`
	// WatermarkLagSeconds is wall-clock now minus the global event-time
	// watermark (-1 before any entry is accepted). On a live feed this is
	// the ingestion delay; on a historical replay it is legitimately huge —
	// the event clock lags reality by the age of the log.
	WatermarkLagSeconds float64 `json:"watermark_lag_seconds"`
	// ShardWatermarkLagSeconds is the same lag per shard (-1 for a shard
	// that has seen no entries); a shard far behind the rest has queue
	// backlog or a stalled drain.
	ShardWatermarkLagSeconds []float64         `json:"shard_watermark_lag_seconds,omitempty"`
	Durability               *DurabilityHealth `json:"durability,omitempty"`
}

// watermarkLagSeconds converts an event-time watermark to a lag against now
// (-1 for the zero watermark: no entries yet).
func watermarkLagSeconds(now time.Time, wm time.Time) float64 {
	if wm.IsZero() {
		return -1
	}
	return now.Sub(wm).Seconds()
}

// health assembles the GET /healthz document, which /statusz renders too.
func (s *Server) health() HealthPayload {
	st := s.eng.Stats()
	status := "ok"
	if s.closed.Load() {
		status = "draining"
	}
	now := time.Now()
	shardLags := make([]float64, 0, s.eng.NumShards())
	for _, wm := range s.eng.ShardWatermarks() {
		shardLags = append(shardLags, watermarkLagSeconds(now, wm))
	}
	h := HealthPayload{
		Status:          status,
		Version:         s.version,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Shards:          s.eng.NumShards(),
		OpenSessions:    s.eng.OpenSessions(),
		QueueDepth:      int(s.qDepth.Value()),
		QueueCapacity:   len(s.queues) * s.cfg.QueueSize,
		EntriesIn:       st.In,
		EntriesOut:      st.Out,
		SessionsEmitted: st.SessionsEmitted,

		WatermarkLagSeconds:      watermarkLagSeconds(now, s.eng.Watermark()),
		ShardWatermarkLagSeconds: shardLags,
	}
	if s.jw != nil {
		h.Durability = &DurabilityHealth{
			DataDir:         s.cfg.DataDir,
			JournalLSN:      s.jw.LastLSN(),
			SnapshotLSN:     uint64(s.gSnapshotLSN.Value()),
			JournalSegments: s.jw.Segments(),
			ReplayedOnStart: s.replayed,
		}
		if s.store != nil {
			h.Durability.RetainBlocks, h.Durability.RetainBytes = s.store.Stats()
		}
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
