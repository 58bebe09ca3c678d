// Package sqlclean detects patterns and antipatterns in SQL query logs and
// cleans (rewrites) the antipatterns, implementing the framework of
// Arzamasova, Schäler and Böhm: "Cleaning Antipatterns in an SQL Query Log"
// (ICDE 2018).
//
// A query log flows through the pipeline of the paper's Fig. 1:
//
//	original log → delete duplicates → parse statements →
//	templates & patterns → detect antipatterns → solve antipatterns →
//	clean log + statistics
//
// The built-in antipatterns are the three Stifle classes (DW, DS, DF —
// similar queries that should have been one), Circuitous-Treasure-Hunt
// candidates (dependent query chains), and Searching-Nullable-Columns
// (= NULL comparisons). Stifles and SNC are solvable: the framework rewrites
// each instance into a single equivalent statement. New antipatterns plug in
// via Config.ExtraRules / Config.ExtraSolvers.
//
// Minimal use:
//
//	log, _ := sqlclean.ReadLogTSV(file)
//	res, err := sqlclean.Clean(log, sqlclean.Config{})
//	// res.Clean is the rewritten log, res.Report the Table-5-style summary.
package sqlclean

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/buildinfo"
	"sqlclean/internal/core"
	"sqlclean/internal/dedup"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/recommend"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sketch"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/stream"
	"sqlclean/internal/traffic"
	"sqlclean/internal/workload"
)

// Entry is one query-log record: statement, timestamp, optional user (IP),
// session label and result-row count.
type Entry = logmodel.Entry

// Log is an in-memory query log.
type Log = logmodel.Log

// Config configures a pipeline run; the zero value applies the paper's
// defaults.
type Config = core.Config

// Result is the full outcome of a pipeline run: the clean and removal logs,
// templates, antipattern instances and statistics.
type Result = core.Result

// Report is the Table-5-style results overview.
type Report = core.Report

// TemplateStats aggregates the occurrences of one query template.
type TemplateStats = pattern.TemplateStats

// SWSOptions are the sliding-window-search thresholds.
type SWSOptions = pattern.SWSOptions

// Instance is one detected antipattern occurrence.
type Instance = antipattern.Instance

// Kind names an antipattern type.
type Kind = antipattern.Kind

// Rule is a pluggable antipattern detection rule.
type Rule = antipattern.Rule

// Solver is a pluggable antipattern rewriter.
type Solver = rewrite.Solver

// Catalog is the schema metadata consulted for key attributes.
type Catalog = schema.Catalog

// Column describes one catalog column.
type Column = schema.Column

// QueryInfo is the parsed-and-summarized form of one SELECT statement (its
// skeleton clauses, template fingerprint, and predicate summary). It keeps
// no syntax tree: QueryTree re-parses the statement on every call, so
// custom rules should decide from the summary fields and re-parse only the
// statements that pass them.
type QueryInfo = skeleton.Info

// QueryTree re-parses a SELECT statement into a fresh syntax tree that the
// caller owns. Each call parses the statement text again.
func QueryTree(in *QueryInfo) (*sqlast.SelectStatement, error) { return parsedlog.Tree(in) }

// ParsedEntry is one log entry annotated with its parse result; custom
// rules receive the parsed log.
type ParsedEntry = parsedlog.Entry

// ParsedLog is the parsed query log handed to detection rules.
type ParsedLog = parsedlog.Log

// Session is one user's burst of consecutive queries; detection rules scan
// the log session by session.
type Session = session.Session

// WorkloadConfig sizes the synthetic SkyServer-style log generator.
type WorkloadConfig = workload.Config

// Truth is the generator's ground-truth labeling.
type Truth = workload.Truth

// The built-in antipattern kinds.
const (
	KindDWStifle = antipattern.DWStifle
	KindDSStifle = antipattern.DSStifle
	KindDFStifle = antipattern.DFStifle
	KindCTH      = antipattern.CTH
	KindSNC      = antipattern.SNC
)

// Optional antipattern kinds (see ExtraAntipatternRules).
const (
	KindImplicitColumns = antipattern.ImplicitColumns
	KindLeadingWildcard = antipattern.LeadingWildcard
)

// ExtraAntipatternRules returns optional detection rules beyond the paper's
// core set (Implicit Columns, leading-wildcard LIKE), ready for
// Config.ExtraRules.
func ExtraAntipatternRules(cat *Catalog) []Rule { return antipattern.ExtraRules(cat) }

// ExtraAntipatternSolvers returns the solvers matching
// ExtraAntipatternRules, ready for Config.ExtraSolvers.
func ExtraAntipatternSolvers(cat *Catalog) []Solver { return rewrite.ExtraSolvers(cat) }

// UnrestrictedDedup removes every later repeat of a statement regardless of
// elapsed time when used as Config.DuplicateThreshold.
const UnrestrictedDedup = dedup.Unrestricted

// Clean runs the full pipeline (Fig. 1) over the log.
func Clean(l Log, cfg Config) (*Result, error) { return core.Run(l, cfg) }

// Analyze runs the pipeline with solving disabled: antipatterns are
// detected and reported but the log is left unchanged.
func Analyze(l Log, cfg Config) (*Result, error) {
	cfg.DisableSolve = true
	return core.Run(l, cfg)
}

// ReadLogTSV reads a query log in the tab-separated format
// (time, user, session, rows, statement per line).
func ReadLogTSV(r io.Reader) (Log, error) { return logmodel.ReadTSV(r) }

// WriteLogTSV writes a query log in the tab-separated format.
func WriteLogTSV(w io.Writer, l Log) error { return logmodel.WriteTSV(w, l) }

// ReadSkyServerCSV reads a log in the CSV export format of the SkyServer
// SqlLog table (header row naming at least a timestamp and a statement
// column; clientIP/seq/rows are picked up when present).
func ReadSkyServerCSV(r io.Reader) (Log, error) { return logmodel.ReadSkyServerCSV(r) }

// SkyServerCatalog returns the demo catalog modeled on the SDSS SkyServer
// schema subset the paper's case study touches.
func SkyServerCatalog() *Catalog { return schema.SkyServer() }

// NewCatalog returns an empty schema catalog.
func NewCatalog() *Catalog { return schema.New() }

// DefaultWorkloadConfig sizes a ≈10k-entry synthetic log with paper-like
// composition.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// GenerateWorkload builds a deterministic synthetic SkyServer-style log
// plus ground-truth labels.
func GenerateWorkload(cfg WorkloadConfig) (Log, *Truth) { return workload.Generate(cfg) }

// OverlapDistance returns 1 − overlap of the data-space regions accessed by
// two parsed queries — the clustering distance of the §6.9 downstream
// experiment.
func OverlapDistance(a, b *QueryInfo) float64 {
	return overlap.Distance(overlap.FromInfo(a), overlap.FromInfo(b))
}

// Recommender is a next-query-template recommender (a first-order Markov
// chain over templates) — the downstream consumer the paper's §7 future
// work studies.
type Recommender = recommend.Model

// Suggestion is one recommended next query template.
type Suggestion = recommend.Suggestion

// ContaminationReport quantifies how much recommendation mass lands on
// antipattern templates.
type ContaminationReport = recommend.ContaminationReport

// TrainRecommender builds a next-query recommender from a pipeline result's
// parsed log and sessions.
func TrainRecommender(res *Result) *Recommender {
	return recommend.Train(res.Parsed, res.Sessions)
}

// TrafficReport is a SkyServer-Traffic-Report-style descriptive summary of
// a query log.
type TrafficReport = traffic.Report

// TrafficOptions configure traffic-report computation.
type TrafficOptions = traffic.Options

// ComputeTraffic builds the traffic report for a time-sorted log.
func ComputeTraffic(l Log, opt TrafficOptions) TrafficReport { return traffic.Compute(l, opt) }

// The SWS treatment modes for Config.SWSMode (§6.5).
const (
	SWSKeep    = core.SWSKeep
	SWSExclude = core.SWSExclude
	SWSUnion   = core.SWSUnion
)

// AnalysisDoc is the machine-readable export of a pipeline run.
type AnalysisDoc = core.ExportDoc

// WriteResultJSON writes the full analysis (report, templates, sequences,
// antipattern instances, replacements) as indented JSON. maxInstances
// bounds the instance list; 0 exports all.
func WriteResultJSON(w io.Writer, res *Result, maxInstances int) error {
	return core.WriteJSON(w, res, maxInstances)
}

// ReadResultJSON reads back an analysis document written by
// WriteResultJSON.
func ReadResultJSON(r io.Reader) (AnalysisDoc, error) { return core.ReadJSON(r) }

// Metrics is the observability registry: atomic counters, gauges with
// high-water marks, fixed-bucket histograms and text metrics, scrape-able
// as Prometheus text. Pass one as Config.Metrics / StreamConfig.Metrics to
// instrument a run's hot paths; a nil registry keeps every instrumented
// path on the zero-overhead fast path.
type Metrics = obs.Registry

// NewMetrics returns an empty observability registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// StageTiming is one node of a run's stage-timing tree (Report.Stages).
type StageTiming = obs.StageTiming

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = obs.Snapshot

// ProgressSample is one observation for a progress reporter.
type ProgressSample = obs.ProgressSample

// Progress periodically renders a one-line live status of a long run.
type Progress = obs.Progress

// NewProgress returns an unstarted progress reporter writing to w every
// interval (0 selects 1 s); sample is called on each tick and must be safe
// to call concurrently with the run (registry reads are).
func NewProgress(w io.Writer, interval time.Duration, sample func() ProgressSample) *Progress {
	return obs.NewProgress(w, interval, sample)
}

// NewLogger returns a structured leveled logger writing to w. level is one
// of debug|info|warn|error (empty selects info); format is text or json.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// InstrumentParallel publishes worker-pool utilization metrics
// (parallel_* counters and the workers-active gauge) into the registry.
// Process-wide; a nil registry detaches.
func InstrumentParallel(m *Metrics) { parallel.Instrument(m) }

// ServeDebug starts the observability HTTP server on addr (e.g. ":6060"),
// serving /metrics (Prometheus text), /debug/pprof/ and /debug/vars. It
// returns the bound address (useful with ":0") and the server handle.
func ServeDebug(addr string, m *Metrics) (string, *http.Server, error) {
	return obs.Serve(addr, m)
}

// StreamConfig configures the bounded-memory streaming pipeline.
type StreamConfig = stream.Config

// SketchConfig sizes the streaming approximate-analytics layer (the
// StreamConfig.Sketches field): HLL distinct-identity counter, SpaceSaving
// heavy-hitter tracker and windowed SWS evidence.
type SketchConfig = sketch.Config

// StreamStats are the streaming pipeline's counters.
type StreamStats = stream.Stats

// StreamProcessor processes a time-ordered log incrementally: sessions are
// detected, solved and emitted as soon as they close, so memory stays
// bounded by the open sessions — the right shape for logs of the real
// SkyServer's 42-million-entry size.
type StreamProcessor = stream.Processor

// NewStream returns a streaming processor.
func NewStream(cfg StreamConfig) *StreamProcessor { return stream.New(cfg) }

// CleanStream runs a whole log through a fresh streaming processor. The
// cleaned output is equivalent to Clean's (same statements; emitted in
// session-close order; no SWS handling).
func CleanStream(l Log, cfg StreamConfig) (Log, StreamStats, error) { return stream.Run(l, cfg) }

// ScanLogTSV streams a TSV log entry by entry with constant memory,
// pairing with StreamProcessor for end-to-end bounded-memory cleaning.
func ScanLogTSV(r io.Reader, fn func(Entry) error) error { return logmodel.ScanTSV(r, fn) }

// StreamSketchJSON is the sketch block of the streaming -json export: the
// approximate analytics accumulated alongside the exact counters. Present
// only when the processor runs with sketches enabled.
type StreamSketchJSON struct {
	// DistinctUsersEstimate is the HLL distinct-identity estimate.
	DistinctUsersEstimate int64 `json:"distinct_users_estimate"`
	// SWSTemplates/SWSQueries classify the drained windowed evidence with
	// the default thresholds — matching the batch pipeline's decision.
	SWSTemplates int `json:"sws_templates"`
	SWSQueries   int `json:"sws_queries"`
	// Toplist is the SpaceSaving heavy-hitter summary, count-descending;
	// each entry's true frequency lies in [count−err, count].
	Toplist []sketch.HeavyHitter `json:"toplist"`
}

// WriteStreamJSON writes a streaming run's counters, accumulated template
// statistics and sketch analytics as indented JSON — the batch -json
// export's streaming counterpart, using the same JSON names as the daemon's
// GET /report payload.
func WriteStreamJSON(w io.Writer, p *StreamProcessor) error {
	doc := struct {
		Stream    StreamStats         `json:"stream"`
		Templates []core.TemplateJSON `json:"templates"`
		Sketches  *StreamSketchJSON   `json:"sketches,omitempty"`
	}{Stream: p.Stats()}
	var sws map[uint64]bool
	if sk := p.Sketches(); sk != nil {
		sws = p.ClassifySWS(pattern.DefaultSWSOptions())
		sj := &StreamSketchJSON{
			DistinctUsersEstimate: sk.HLL.Count(),
			SWSTemplates:          len(sws),
			Toplist:               sk.Top.Top(0),
		}
		for fp, ev := range sk.SWS.MergedEvidence() {
			if sws[fp] {
				sj.SWSQueries += ev.Freq
			}
		}
		doc.Sketches = sj
	}
	for _, t := range p.Templates() {
		doc.Templates = append(doc.Templates, core.TemplateJSON{
			Fingerprint:    t.Fingerprint,
			Skeleton:       t.Skeleton,
			Frequency:      t.Frequency,
			UserPopularity: t.UserPopularity,
			SWS:            sws[t.Fingerprint],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ShardedStreamConfig configures the sharded (multi-core) streaming engine.
type ShardedStreamConfig = stream.ShardedConfig

// ShardedStream is the multi-core streaming engine: entries are partitioned
// by user hash into independent shard processors (dedup keys and sessions
// are per user, so both stay shard-local), and a global event-time
// watermark closes sessions in quiet partitions. Safe for concurrent use;
// each user's entries must keep their time order (route one user through
// one goroutine or queue).
type ShardedStream = stream.Sharded

// NewShardedStream returns a sharded streaming engine.
func NewShardedStream(cfg ShardedStreamConfig) *ShardedStream { return stream.NewSharded(cfg) }

// CleanStreamSharded runs a whole log through a fresh sharded streaming
// engine, processing user partitions concurrently on the worker pool. The
// cleaned output is the same multiset of statements as CleanStream's,
// sorted by time.
func CleanStreamSharded(l Log, cfg ShardedStreamConfig) (Log, StreamStats, error) {
	return stream.RunSharded(l, cfg)
}

// Version returns the build stamp baked into the binary (see the Makefile's
// LDFLAGS; unstamped builds fall back to VCS metadata).
func Version() string { return buildinfo.String() }

// RetailWorkloadConfig sizes the retail OLTP workload (paper Example 7).
type RetailWorkloadConfig = workload.RetailConfig

// DefaultRetailConfig returns a ≈2k-entry retail log configuration.
func DefaultRetailConfig() RetailWorkloadConfig { return workload.DefaultRetailConfig() }

// GenerateRetailWorkload builds the shoe retailer's BUY-procedure log with
// ground truth; pair with RetailCatalog for analysis.
func GenerateRetailWorkload(cfg RetailWorkloadConfig) (Log, *Truth) {
	return workload.GenerateRetail(cfg)
}

// RetailCatalog returns the retail schema of the paper's Example 7.
func RetailCatalog() *Catalog { return workload.RetailCatalog() }
