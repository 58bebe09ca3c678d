// Command sqlcleand is the log-cleaning daemon: it accepts raw query-log
// entries over HTTP while they are being produced and keeps an incremental
// cleaning report current.
//
// Usage:
//
//	sqlcleand [-addr :8080] [-dup 1s] [-gap 5m] [-no-key-check]
//	          [-shards 0] [-queue 1024] [-max-body 32] [-clean out.tsv]
//	          [-data-dir DIR] [-fsync interval] [-fsync-interval 1s]
//	          [-snapshot-interval 5m] [-max-skew 0] [-no-clusters]
//	          [-cluster-threshold 0.9] [-log-level info]
//	          [-log-format text] [-slow-request 1s] [-version]
//
// Endpoints:
//
//	POST /ingest   NDJSON entries {"time","user","session","rows","statement"},
//	               or TSV lines with ?format=tsv; 429 + Retry-After when the
//	               ingest queues are full
//	GET  /report   incremental cleaning report (JSON): counters, templates
//	               with their SWS verdicts, and the sketch block (exact
//	               distinct-user count, SWS template and query counts)
//	GET  /toplist  the k most frequent templates by exact count (?k=N), and
//	               the exact distinct-user count
//	GET  /clusters overlap clustering of the clean log's predicate boxes,
//	               equal to the batch clustering of the clean log
//	GET  /healthz  liveness, version, queue, session and watermark state
//	GET  /statusz  human status page (?format=text for plain text)
//	GET  /debug/requests  recent and slowest request traces (?view=slow)
//	GET  /metrics  Prometheus text; /debug/pprof/ and /debug/vars too
//
// Every POST /ingest is traced end to end (admission, enqueue, journal
// group-commit, async emit) under a trace ID that is honored from or echoed
// into the X-Trace-Id header; requests slower than -slow-request log a warn
// line with per-stage timings. Logs are structured (-log-format json for
// machine-readable lines).
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, the queues
// drain, and every open session is flushed through detection and solving
// before the process exits.
//
// With -data-dir the daemon is crash-durable: every accepted entry is
// journaled before its request is acknowledged, periodic snapshots checkpoint
// the engine, and a restart with the same directory replays the journal tail
// so no acknowledged entry is lost even across a SIGKILL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlclean"
	"sqlclean/internal/buildinfo"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/server"
	"sqlclean/internal/stream"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dup        = flag.Duration("dup", time.Second, "duplicate time threshold")
		gap        = flag.Duration("gap", 5*time.Minute, "session gap: silence that closes a user's session")
		noKeyCheck = flag.Bool("no-key-check", false, "drop Definition 11's key-attribute requirement for Stifles")
		shards     = flag.Int("shards", 0, "user-hash partitions (0 = 2×GOMAXPROCS, min 8; rounded up to a power of two)")
		queue      = flag.Int("queue", 1024, "per-shard ingest queue capacity")
		maxBody    = flag.Int64("max-body", 32, "maximum request body in MiB")
		cleanOut   = flag.String("clean", "", "append cleaned entries (TSV) to this file as sessions close")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for draining queues and flushing sessions")
		dataDir    = flag.String("data-dir", "", "durability directory: journal accepted entries and checkpoint the engine there (empty = in-memory only)")
		fsyncMode  = flag.String("fsync", "interval", "journal fsync policy: always | interval | never")
		fsyncEvery = flag.Duration("fsync-interval", time.Second, "background fsync cadence for -fsync interval")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Minute, "checkpoint cadence (<0 disables periodic snapshots)")
		retain     = flag.Bool("retain", false, "compact snapshot-covered journal segments into columnar blocks instead of deleting them (requires -data-dir); serves GET /history")
		retainDir  = flag.String("retain-dir", "", "columnar block directory (empty = <data-dir>/colstore)")
		retainMax  = flag.Int64("retain-max-bytes", 0, "evict oldest retention blocks past this many bytes (0 keeps everything)")
		extraRules = flag.Bool("extra-rules", false, "also detect the optional §5.4 antipatterns (Implicit Columns, leading-wildcard LIKE)")
		maxSkew    = flag.Duration("max-skew", 0, "reject entries this far past the event-time watermark (0 = disabled)")
		noClusters = flag.Bool("no-clusters", false, "disable the GET /clusters overlap-clustering surface")
		clusterT   = flag.Float64("cluster-threshold", 0.9, "default overlap-distance threshold for GET /clusters")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat  = flag.String("log-format", "text", "log output format: text | json")
		slowReq    = flag.Duration("slow-request", time.Second, "log a warn line with stage timings for ingest requests at or above this latency (<0 disables)")
		version    = flag.Bool("version", false, "print the build stamp and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("sqlcleand", buildinfo.String())
		return
	}

	// The server and journal tag their own component attr, so they get the
	// base logger; the daemon's own lines carry component=sqlcleand.
	baseLogger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatalPlain(err)
	}
	logger := baseLogger.With("component", "sqlcleand")
	fatal := func(err error) {
		logger.Error("fatal", "error", err)
		os.Exit(1)
	}

	var emit func(logmodel.Log)
	var cleanFile *os.File
	if *cleanOut != "" {
		f, err := os.OpenFile(*cleanOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		cleanFile = f
		// The server serializes Emit calls, so plain writes are safe.
		emit = func(l logmodel.Log) {
			if err := logmodel.WriteTSV(f, l); err != nil {
				logger.Error("write clean log failed", "path", *cleanOut, "error", err)
			}
		}
	}

	policy, err := journal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}

	metrics := sqlclean.NewMetrics()
	sqlclean.InstrumentParallel(metrics)
	streamCfg := stream.Config{
		DuplicateThreshold: *dup,
		SessionGap:         *gap,
		DisableKeyCheck:    *noKeyCheck,
	}
	if *extraRules {
		streamCfg.ExtraRules, streamCfg.ExtraSolvers = extraRuleSet()
	}
	srv, err := server.New(server.Config{
		Stream: stream.ShardedConfig{
			Shards:        *shards,
			MaxFutureSkew: *maxSkew,
			Config:        streamCfg,
		},
		QueueSize:        *queue,
		MaxBodyBytes:     *maxBody << 20,
		Metrics:          metrics,
		Logger:           baseLogger,
		SlowRequest:      *slowReq,
		Emit:             emit,
		ClustersDisabled: *noClusters,
		ClusterThreshold: *clusterT,
		DataDir:          *dataDir,
		Fsync:            policy,
		FsyncInterval:    *fsyncEvery,
		SnapshotInterval: *snapEvery,
		Retain:           *retain,
		RetainDir:        *retainDir,
		RetainMaxBytes:   *retainMax,
	})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		logger.Info("durability enabled",
			"data_dir", *dataDir, "fsync", string(policy), "replayed", srv.Replayed())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		"version", buildinfo.Short(), "addr", *addr, "shards", srv.Engine().NumShards(),
		"log_level", *logLevel, "slow_request", slowReq.String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "error", err)
	}
	if err := srv.Close(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	// Close the cleaned-log sink only after the drain: the final flush still
	// writes through it, and its Close error is the last chance to learn the
	// appended sessions didn't stick.
	if cleanFile != nil {
		if err := cleanFile.Close(); err != nil {
			fatal(fmt.Errorf("close %s: %w", *cleanOut, err))
		}
	}
	st := srv.Engine().Stats()
	logger.Info("drained",
		"in", st.In, "selects", st.Selects, "duplicates", st.Duplicates,
		"out", st.Out, "sessions", st.SessionsEmitted)
}

// extraRuleSet assembles the optional §5.4 rule set behind -extra-rules:
// Karwin's Implicit Columns and leading-wildcard LIKE, with the matching
// solvers, over the SkyServer demo catalog.
func extraRuleSet() ([]sqlclean.Rule, []sqlclean.Solver) {
	cat := sqlclean.SkyServerCatalog()
	return sqlclean.ExtraAntipatternRules(cat), sqlclean.ExtraAntipatternSolvers(cat)
}

// fatalPlain reports an error from before the logger exists.
func fatalPlain(err error) {
	fmt.Fprintln(os.Stderr, "sqlcleand:", err)
	os.Exit(1)
}
