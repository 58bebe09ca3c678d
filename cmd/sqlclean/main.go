// Command sqlclean runs the full antipattern-cleaning pipeline over a query
// log in TSV format and reports statistics.
//
// Usage:
//
//	sqlclean [-dup 1s] [-gap 5m] [-no-key-check] [-no-users] [-workers 0]
//	         [-cluster 0.9] [-clean out.tsv] [-removal out.tsv] [-top 15]
//	         [-progress] [-debug-addr :6060] [-log-level info]
//	         [-log-format text] log.tsv
//
// With no file argument the log is read from stdin. -progress renders a
// live rate/ETA line on stderr; -debug-addr serves /metrics (Prometheus
// text), /debug/pprof/ and /debug/vars while the run is in flight. All
// stderr diagnostics are structured log lines (-log-format json for
// machine-readable output); the report on stdout is untouched.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"sqlclean"
)

func main() {
	var (
		dup        = flag.Duration("dup", time.Second, "duplicate time threshold (0 keeps the default 1s; use -no-dedup to disable)")
		noDedup    = flag.Bool("no-dedup", false, "skip duplicate deletion")
		gap        = flag.Duration("gap", 5*time.Minute, "session gap: maximum time between queries of one pattern instance")
		noKeyCheck = flag.Bool("no-key-check", false, "drop Definition 11's key-attribute requirement for Stifles")
		noUsers    = flag.Bool("no-users", false, "ignore user/session columns (paper §6.8 minimal-input mode)")
		format     = flag.String("format", "tsv", "input format: tsv (time/user/session/rows/statement) or csv (SkyServer SqlLog export)")
		fixpoint   = flag.Bool("fixpoint", false, "re-solve until no solvable antipattern remains (§5.5)")
		cleanOut   = flag.String("clean", "", "write the cleaned log to this file")
		removalOut = flag.String("removal", "", "write the removal log (antipatterns dropped) to this file")
		jsonOut    = flag.String("json", "", "write the full analysis (report, templates, instances) as JSON to this file")
		streaming  = flag.Bool("stream", false, "bounded-memory streaming mode (TSV input only): sessions are cleaned and written as they close")
		workers    = flag.Int("workers", 0, "parallelism of the pipeline stages (and, with -cluster, clustering beside cleaning): 0 = all CPUs, 1 = serial")
		clusterT   = flag.Float64("cluster", 0, "overlap-distance threshold for §6.9 access-area clustering (0 disables; the paper uses 0.9)")
		top        = flag.Int("top", 15, "number of top patterns/antipatterns to print")
		progress   = flag.Bool("progress", false, "render a live progress line (rate, ETA) on stderr")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060)")
		timing     = flag.Bool("timing", false, "print the per-stage timing tree after the run")
		extraRules = flag.Bool("extra-rules", false, "also detect the optional §5.4 antipatterns (Implicit Columns, leading-wildcard LIKE)")
		compact    = flag.Bool("compact", false, "offline retention: compact a daemon journal (-data-dir) into columnar blocks (-retain-dir) and exit")
		scanBlocks = flag.Bool("scan", false, "offline retention: scan columnar blocks (-retain-dir) back to TSV on stdout and exit")
		dataDir    = flag.String("data-dir", "", "journal directory (wal-*.log) for -compact")
		retainDir  = flag.String("retain-dir", "", "columnar block directory for -compact / -scan")
		retainMax  = flag.Int64("retain-max-bytes", 0, "evict oldest blocks past this many bytes during -compact (0 keeps everything)")
		scanFrom   = flag.String("from", "", "lower time bound for -scan (RFC3339 or log timestamp format)")
		scanTo     = flag.String("to", "", "upper time bound for -scan")
		scanTmpl   = flag.Uint64("template", 0, "only -scan entries of this template fingerprint (engine or lexical)")
		logLevel   = flag.String("log-level", "info", "stderr log verbosity: debug | info | warn | error")
		logFormat  = flag.String("log-format", "text", "stderr log format: text | json")
		version    = flag.Bool("version", false, "print the build stamp and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("sqlclean", sqlclean.Version())
		return
	}
	// Diagnostics go to stderr as structured logs; the report, cleaned log
	// and progress line keep their stdout/stderr contracts untouched.
	l, lerr := sqlclean.NewLogger(os.Stderr, *logLevel, *logFormat)
	if lerr != nil {
		fatal(lerr)
	}
	logger = l.With("component", "sqlclean")

	if *compact {
		runCompact(*dataDir, *retainDir, *retainMax)
		return
	}
	if *scanBlocks {
		runScan(*retainDir, *scanFrom, *scanTo, *scanTmpl)
		return
	}

	// Observability: one registry feeds the debug endpoint, the progress
	// reporter and the pipeline's hot-path counters.
	var metrics *sqlclean.Metrics
	if *debugAddr != "" || *progress {
		metrics = sqlclean.NewMetrics()
		sqlclean.InstrumentParallel(metrics)
	}
	if *debugAddr != "" {
		addr, _, err := sqlclean.ServeDebug(*debugAddr, metrics)
		if err != nil {
			fatal(err)
		}
		logger.Info("debug server listening",
			"url", "http://"+addr, "endpoints", "/metrics /debug/pprof/ /debug/vars")
	}

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
		if strings.HasSuffix(flag.Arg(0), ".gz") {
			zr, err := gzip.NewReader(f)
			if err != nil {
				fatal(err)
			}
			defer zr.Close()
			r = zr
		}
	}
	if *streaming {
		if *format != "tsv" {
			fatal(fmt.Errorf("-stream supports tsv input only"))
		}
		runStreaming(r, *dup, *gap, *noKeyCheck, *extraRules, *cleanOut, *jsonOut, metrics, *progress)
		return
	}

	var log sqlclean.Log
	var err error
	switch *format {
	case "tsv":
		log, err = sqlclean.ReadLogTSV(r)
	case "csv":
		log, err = sqlclean.ReadSkyServerCSV(r)
	default:
		fatal(fmt.Errorf("unknown -format %q (want tsv or csv)", *format))
	}
	if err != nil {
		fatal(err)
	}
	if *noUsers {
		log = log.StripUsers()
	}

	cfg := sqlclean.Config{
		DuplicateThreshold: *dup,
		NoDedup:            *noDedup,
		SessionGap:         *gap,
		DisableKeyCheck:    *noKeyCheck,
		SolveToFixpoint:    *fixpoint,
		Workers:            *workers,
		ClusterThreshold:   *clusterT,
		Metrics:            metrics,
	}
	if *extraRules {
		cfg.ExtraRules, cfg.ExtraSolvers = extraRuleSet()
	}
	if *progress {
		total := int64(len(log))
		pr := sqlclean.NewProgress(os.Stderr, 0, func() sqlclean.ProgressSample {
			// Fixpoint and SWS-mode passes re-parse rewritten statements,
			// so the parse counter can exceed the input size; clamp it.
			done := metrics.Counter("parse_entries_total").Value()
			if done > total {
				done = total
			}
			return sqlclean.ProgressSample{
				Stage: metrics.Text("pipeline_stage").Get(),
				Done:  done,
				Total: total,
			}
		})
		pr.Start()
		defer pr.Stop()
	}
	res, err := sqlclean.Clean(log, cfg)
	if err != nil {
		fatal(err)
	}
	if *timing {
		printTiming(os.Stderr, res.Report.Stages, 0)
	}

	fmt.Print(res.Report)
	fmt.Println()
	anti := res.AntipatternTemplates()
	fmt.Printf("Top %d patterns (★ marks templates involved in antipatterns):\n", *top)
	for i, t := range res.Templates {
		if i >= *top {
			break
		}
		mark := " "
		if anti[t.Fingerprint] {
			mark = "★"
		}
		sws := ""
		if res.SWS[t.Fingerprint] {
			sws = " [SWS]"
		}
		fmt.Printf("%2d. %s freq=%-8d users=%-5d %s%s\n", i+1, mark, t.Frequency, t.UserPopularity, truncate(t.Skeleton, 100), sws)
	}
	fmt.Println()
	for _, s := range res.Report.SolveStats {
		fmt.Printf("solved %-10s: %d instances, %d → %d queries\n", s.Kind, s.Solved, s.QueriesBefore, s.QueriesAfter)
	}
	// The report prints the clustering and the leader-scan counterfactual;
	// the grid's own Overlap-call counts go to -json
	// (cluster_comparisons*). Every figure is the same at any -workers.
	if *clusterT > 0 {
		fmt.Printf("clusters (threshold %g): %d, avg size %.1f (grid pruned a %d-comparison leader scan)\n",
			*clusterT, res.Report.ClusterCount, res.Report.ClusterAvgSize,
			res.Report.ClusterWork.ScanComparisons)
	}

	if *cleanOut != "" {
		if err := writeLog(*cleanOut, res.Clean); err != nil {
			fatal(err)
		}
	}
	if *removalOut != "" {
		if err := writeLog(*removalOut, res.Removal); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(f *os.File) error {
			return sqlclean.WriteResultJSON(f, res, 0)
		}); err != nil {
			fatal(err)
		}
	}
}

// writeFile creates path, runs write, and surfaces the Close error too: a
// failed Close after buffered writes is data loss, and a deferred Close
// would swallow it while the process exits 0.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func writeLog(path string, l sqlclean.Log) error {
	return writeFile(path, func(f *os.File) error {
		return sqlclean.WriteLogTSV(f, l)
	})
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// logger carries structured stderr diagnostics; nil only before flag
// parsing, when fatal falls back to a plain line.
var logger *slog.Logger

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "error", err)
	} else {
		fmt.Fprintln(os.Stderr, "sqlclean:", err)
	}
	os.Exit(1)
}

// printTiming renders the stage-timing tree (one line per span, indented by
// depth) with durations and recorded attributes.
func printTiming(w io.Writer, st sqlclean.StageTiming, depth int) {
	if st.Name == "" {
		return
	}
	fmt.Fprintf(w, "%*s%-12s %12v", depth*2, "", st.Name, time.Duration(st.DurationNS).Round(time.Microsecond))
	if len(st.Attrs) > 0 {
		keys := make([]string, 0, len(st.Attrs))
		for k := range st.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%d", k, st.Attrs[k])
		}
	}
	fmt.Fprintln(w)
	for _, c := range st.Children {
		printTiming(w, c, depth+1)
	}
}

// runStreaming cleans the log with the streaming engine at one shard (the
// serial stream), writing cleaned entries as their sessions close. -json
// exports the streaming stats and template statistics (same JSON names as
// the daemon's GET /report "stream" block).
func runStreaming(r io.Reader, dup, gap time.Duration, noKeyCheck, extraRules bool, cleanOut, jsonOut string, metrics *sqlclean.Metrics, progress bool) {
	scfg := sqlclean.StreamConfig{
		DuplicateThreshold: dup,
		SessionGap:         gap,
		DisableKeyCheck:    noKeyCheck,
		Metrics:            metrics,
	}
	if err := scfg.Validate(); err != nil {
		fatal(err)
	}
	out := os.Stdout
	var outFile *os.File
	if cleanOut != "" {
		f, err := os.Create(cleanOut)
		if err != nil {
			fatal(err)
		}
		out, outFile = f, f
	}
	if extraRules {
		scfg.ExtraRules, scfg.ExtraSolvers = extraRuleSet()
	}
	p := sqlclean.NewShardedStream(sqlclean.ShardedStreamConfig{Config: scfg, Shards: 1})
	if progress {
		pr := sqlclean.NewProgress(os.Stderr, 0, func() sqlclean.ProgressSample {
			return sqlclean.ProgressSample{
				Stage: "stream",
				Done:  metrics.Counter("stream_entries_in_total").Value(),
			}
		})
		pr.Start()
		defer pr.Stop()
	}
	emit := func(l sqlclean.Log) {
		if len(l) > 0 {
			if err := sqlclean.WriteLogTSV(out, l); err != nil {
				fatal(err)
			}
		}
	}
	err := sqlclean.ScanLogTSV(r, func(e sqlclean.Entry) error {
		emitted, err := p.Add(e)
		if err != nil {
			return err
		}
		emit(emitted)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	emit(p.Close())
	// The cleaned log was written incrementally; its Close error is the last
	// chance to learn the writes didn't stick.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fatal(fmt.Errorf("close %s: %w", cleanOut, err))
		}
	}
	st := p.Stats()
	logger.Info("stream done",
		"in", st.In, "selects", st.Selects, "duplicates", st.Duplicates,
		"out", st.Out, "solved_away", st.Selects-st.Out)
	if jsonOut != "" {
		if err := writeFile(jsonOut, func(f *os.File) error {
			return sqlclean.WriteStreamJSON(f, p)
		}); err != nil {
			fatal(err)
		}
	}
}
