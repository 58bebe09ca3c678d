// Package core implements the paper's processing framework (Fig. 1): the
// original query log flows through duplicate deletion, statement parsing,
// template/pattern extraction, antipattern detection and antipattern
// solving, producing a clean query log plus statistics. This is the primary
// contribution of the paper; every other internal package is a substrate it
// composes.
package core

import (
	"fmt"
	"sync"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/dedup"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/skeleton"
)

// Config configures one pipeline run. The zero value is usable: it applies
// the paper's defaults (1 s duplicate threshold, 5 min session gap, runs of
// ≥ 2 queries, key-column check on) with the SkyServer demo catalog.
type Config struct {
	// Catalog supplies key-attribute metadata (Definition 11). Nil selects
	// schema.SkyServer().
	Catalog *schema.Catalog
	// DuplicateThreshold is the dedup window (§5.2, Table 4). Zero selects
	// 1 second; dedup.Unrestricted removes all later repeats.
	DuplicateThreshold time.Duration
	// NoDedup skips duplicate deletion entirely.
	NoDedup bool
	// SessionGap splits a user's stream into sessions when consecutive
	// queries are further apart (Definition 8's short-time-gap property).
	// Zero selects 5 minutes; negative disables gap splitting.
	SessionGap time.Duration
	// MinRun is the minimum instance length for Stifle and CTH runs
	// (default 2).
	MinRun int
	// RequireKeyColumn enables Definition 11's key-attribute axiom.
	// DisableKeyCheck inverts it because the zero value must mean "on".
	DisableKeyCheck bool
	// ExtraRules are appended to the default antipattern registry — the
	// §5.4 extension hook.
	ExtraRules []antipattern.Rule
	// ExtraSolvers are appended to the default solver set.
	ExtraSolvers []rewrite.Solver
	// DisableSolve detects antipatterns but leaves the log unchanged (the
	// clean log equals the pre-clean select log).
	DisableSolve bool
	// SolveToFixpoint re-parses and re-solves the clean log until no
	// solvable antipattern remains, in at most 5 passes. §5.5 found a
	// single pass leaves only a 0.09 % residue, so the default is one pass.
	SolveToFixpoint bool
	// SWSMode selects what happens to classified SWS traffic in the clean
	// log (§6.5): keep it (default), exclude it as machine noise, or
	// replace each SWS template's queries by one union query covering the
	// same data space.
	SWSMode SWSMode
	// ClusterThreshold enables overlap clustering of the pre-clean log's
	// predicate boxes (§6.9): each query joins the first cluster whose
	// representative's region is at overlap distance below the threshold.
	// Zero — the default — skips the stage; the paper's operating point is
	// 0.9. Clustering runs on overlap.ClusterInfos: each entry's flat box is
	// built from its summary, identical boxes are grouped by hash with an
	// exact comparison, and the exact grid clusters the distinct ones, so
	// the output is identical to the quadratic leader scan's; Workers fans
	// out only the box build.
	ClusterThreshold float64
	// Workers is the degree of parallelism for the embarrassingly parallel
	// stages (statement parsing, per-session antipattern detection,
	// per-template SWS classification): 0 selects runtime.GOMAXPROCS, 1
	// forces the serial path, n > 1 uses n workers. Results are identical
	// for every value — only wall-clock time changes. With Workers != 1,
	// custom ExtraRules must be safe for concurrent use.
	Workers int
	// Metrics is an optional observability registry. When non-nil the run
	// updates hot-path counters in it (parse cache hits/misses, stage
	// cardinalities, per-stage duration histograms) and keeps the
	// pipeline_stage text current for live scraping. Nil — the default —
	// keeps every hot path on the zero-overhead nil fast path. The stage-
	// timing tree (Report.Stages) is collected either way: a handful of
	// spans per run costs nothing measurable.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		c.Catalog = schema.SkyServer()
	}
	if c.DuplicateThreshold == 0 {
		c.DuplicateThreshold = time.Second
	}
	if c.SessionGap == 0 {
		c.SessionGap = 5 * time.Minute
	}
	if c.MinRun < 2 {
		c.MinRun = 2
	}
	return c
}

const (
	// maxSolvePasses bounds Config.SolveToFixpoint's iteration.
	maxSolvePasses = 5
	// maxSequenceLen bounds multi-template sequence mining.
	maxSequenceLen = 3
)

// SWSMode selects the treatment of sliding-window-search traffic (§6.5).
type SWSMode int

// SWS treatment modes.
const (
	// SWSKeep leaves SWS queries in the clean log (the paper's default:
	// SWS is not an antipattern, merely noise for some analyses).
	SWSKeep SWSMode = iota
	// SWSExclude drops SWS queries from the clean log.
	SWSExclude
	// SWSUnion replaces each SWS template's queries with one query whose
	// range filters are widened to the hull — "a union of the filtering
	// conditions, i.e., replacing all these queries with one that yields
	// the same result" (§6.5). Templates whose filters cannot be unioned
	// (non-range predicates) are kept unchanged.
	SWSUnion
)

// Report is the results overview of one run (the paper's Table 5).
type Report struct {
	SizeOriginal    int
	CountSelect     int
	SizeAfterDedup  int
	DuplicatesFound int
	FinalSize       int

	CountTemplates     int
	MaxTemplateFreq    int
	CountDML           int
	CountDDL           int
	CountExec          int
	CountErrors        int
	AntipatternSummary []antipattern.Summary
	SolveStats         []rewrite.Stats
	// SolvePasses is the number of cleaning passes performed (1 unless
	// Config.SolveToFixpoint is set).
	SolvePasses          int
	SWSTemplates         int
	SWSQueries           int
	QueriesInAntipattern int
	// DistinctUsers is the exact count of distinct user identities in the
	// original log; the streaming engine counts the same over the entries it
	// accepts (stream.Sharded.DistinctUsers).
	DistinctUsers int

	// ClusterCount and ClusterAvgSize summarize the optional overlap
	// clustering stage (zero when Config.ClusterThreshold is unset).
	ClusterCount   int
	ClusterAvgSize float64
	// ClusterWork counts the clustering stage's pairwise-overlap work and
	// what the unpruned leader scan would have cost.
	ClusterWork overlap.Counters

	// Duration is the run's wall-clock time.
	Duration time.Duration
	// Stages is the hierarchical stage-timing tree: one node per pipeline
	// stage with its duration and input/output cardinalities, and — for the
	// parallel stages — one child per worker goroutine with its busy time.
	// Serialized by the -json export.
	Stages obs.StageTiming
}

// String renders the report as a Table 5-style block.
func (r Report) String() string {
	pct := func(n int) string {
		if r.SizeOriginal == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(r.SizeOriginal))
	}
	s := fmt.Sprintf("Size of original query log        %d\n", r.SizeOriginal)
	s += fmt.Sprintf("Count of Select queries           %d (%s)\n", r.CountSelect, pct(r.CountSelect))
	s += fmt.Sprintf("Size of log after deleting dups   %d (%s)\n", r.SizeAfterDedup, pct(r.SizeAfterDedup))
	s += fmt.Sprintf("Final log size                    %d (%s)\n", r.FinalSize, pct(r.FinalSize))
	s += fmt.Sprintf("Count of patterns (templates)     %d\n", r.CountTemplates)
	s += fmt.Sprintf("Maximal pattern frequency         %d\n", r.MaxTemplateFreq)
	for _, a := range r.AntipatternSummary {
		s += fmt.Sprintf("Count of distinct %-15s %d\n", a.Kind, a.Distinct)
		s += fmt.Sprintf("Count of queries in all %-9s %d\n", a.Kind, a.Queries)
	}
	return s
}

// Result is the full outcome of one pipeline run.
type Result struct {
	Config Config

	// Original is the time-sorted input.
	Original logmodel.Log
	// PreClean is the SELECT-only, deduplicated log (Fig. 1's "Pre-clean
	// Query Log" after parsing filtered out non-SELECTs and errors).
	PreClean logmodel.Log
	// Clean is the log with solvable antipatterns rewritten.
	Clean logmodel.Log
	// Removal is the log with all antipattern queries removed (§6.9).
	Removal logmodel.Log

	// Parsed is the annotated pre-clean log; indices in Instances refer to
	// it.
	Parsed parsedlog.Log
	// Sessions are the per-user query bursts of the pre-clean log.
	Sessions []session.Session
	// Templates are the per-template statistics, most frequent first.
	Templates []pattern.TemplateStats
	// Sequences are multi-template patterns of two or three templates.
	Sequences []pattern.SeqPattern
	// Instances are all detected antipattern instances in log order.
	Instances []antipattern.Instance
	// SWS maps template fingerprints classified as sliding-window search.
	SWS map[uint64]bool
	// Clusters groups the pre-clean log by accessed data region (§6.9);
	// member indices refer to Parsed. Nil unless Config.ClusterThreshold
	// is positive.
	Clusters []overlap.Cluster
	// ClusterStats summarizes Clusters (count, average size, size ranks).
	ClusterStats overlap.Stats
	// Replacements lists every solved instance in clean-log order.
	Replacements []rewrite.Replacement

	Dedup  dedup.Result
	Report Report

	// antiTmpl memoizes AntipatternTemplates (guarded by antiTmplOnce).
	antiTmplOnce sync.Once
	antiTmpl     map[uint64]bool
}

// beginStage opens a stage span under root and publishes the stage name
// for live scraping. Pair with endStage.
func beginStage(root *obs.Span, met *obs.Registry, name string) *obs.Span {
	met.Text("pipeline_stage").Set(name)
	return root.StartChild(name)
}

// endStage freezes the stage span and records its duration into the
// registry's per-stage histogram (no-op without a registry).
func endStage(met *obs.Registry, sp *obs.Span) {
	sp.End()
	met.Histogram("stage_"+sp.Name()+"_duration_ns", obs.DurationBucketsNS).Observe(int64(sp.Duration()))
}

// Run executes the full pipeline over the log.
func Run(input logmodel.Log, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	met := cfg.Metrics // nil is the uninstrumented fast path throughout
	root := obs.StartSpan("pipeline")
	met.Counter("pipeline_runs_total").Inc()

	res := &Result{Config: cfg}
	res.Original = input.Clone()
	// Real logs arrive time-ordered, so the common case is a linear
	// sortedness check; only actually-unsorted input pays for the (parallel
	// merge) sort.
	if !res.Original.IsSorted() {
		res.Original.SortStableParallel(cfg.Workers)
	}
	res.Report.SizeOriginal = len(res.Original)
	met.Counter("pipeline_entries_total").Add(int64(len(res.Original)))
	users := make(map[string]struct{})
	for _, e := range res.Original {
		users[e.User] = struct{}{}
	}
	res.Report.DistinctUsers = len(users)

	// Stage 1+2: parse (classify) and keep SELECTs, then delete duplicates.
	// One parser is shared by every stage of the run, so a later pass parses
	// only the statements its cache no longer holds.
	parser := parsedlog.NewParser()
	parser.Instrument(met)
	sp := beginStage(root, met, "parse")
	parsedAll, pstats := parser.ParseParallelSpan(res.Original, cfg.Workers, sp)
	res.Report.CountDML = pstats.DML
	res.Report.CountDDL = pstats.DDL
	res.Report.CountExec = pstats.Exec
	res.Report.CountErrors = pstats.Errors
	res.Report.CountSelect = pstats.Selects
	sp.SetInt("in", int64(len(res.Original)))
	sp.SetInt("selects", int64(pstats.Selects))
	sp.SetInt("errors", int64(pstats.Errors))
	endStage(met, sp)
	met.Counter("pipeline_selects_total").Add(int64(pstats.Selects))

	// Stage 3: the parsed pre-clean log. Dedup reports which entries it
	// kept, so the stage-1 parse results are carried through by index — the
	// pre-clean log is never re-parsed.
	sp = beginStage(root, met, "dedup")
	selParsed := parsedAll.Selects()
	if cfg.NoDedup {
		res.PreClean = selParsed.Raw()
		res.Parsed = selParsed
	} else {
		var kept []int
		res.PreClean, kept, res.Dedup = dedup.RemoveShardedIndexed(selParsed.Raw(), cfg.DuplicateThreshold, cfg.Workers)
		res.Parsed = selParsed.Subset(kept)
	}
	res.Report.DuplicatesFound = res.Dedup.Removed
	res.Report.SizeAfterDedup = len(res.PreClean)
	sp.SetInt("in", int64(len(selParsed)))
	sp.SetInt("out", int64(len(res.PreClean)))
	sp.SetInt("removed", int64(res.Dedup.Removed))
	endStage(met, sp)
	met.Counter("pipeline_duplicates_total").Add(int64(res.Dedup.Removed))

	// Stage 4: sessions, templates, patterns.
	gap := cfg.SessionGap
	if gap < 0 {
		gap = 0
	}
	sp = beginStage(root, met, "sessionize")
	res.Sessions = session.BuildParallel(res.PreClean, session.Options{MaxGap: gap, SplitOnLabel: true}, cfg.Workers)
	sp.SetInt("in", int64(len(res.PreClean)))
	sp.SetInt("sessions", int64(len(res.Sessions)))
	endStage(met, sp)

	sp = beginStage(root, met, "templates")
	res.Templates = pattern.TemplatesParallel(res.Parsed, cfg.Workers)
	res.Report.CountTemplates = len(res.Templates)
	if len(res.Templates) > 0 {
		res.Report.MaxTemplateFreq = res.Templates[0].Frequency
	}
	res.Sequences = pattern.SequencesParallel(res.Parsed, res.Sessions, maxSequenceLen, cfg.Workers)
	sp.SetInt("in", int64(len(res.Parsed)))
	sp.SetInt("templates", int64(len(res.Templates)))
	sp.SetInt("sequences", int64(len(res.Sequences)))
	endStage(met, sp)
	met.Counter("pipeline_templates_total").Add(int64(len(res.Templates)))

	sp = beginStage(root, met, "sws")
	res.SWS = pattern.ClassifySWSParallelSpan(res.Templates, len(res.PreClean), pattern.DefaultSWSOptions(), cfg.Workers, sp)
	for _, t := range res.Templates {
		if res.SWS[t.Fingerprint] {
			res.Report.SWSTemplates++
			res.Report.SWSQueries += t.Frequency
		}
	}
	sp.SetInt("in", int64(len(res.Templates)))
	sp.SetInt("sws_templates", int64(res.Report.SWSTemplates))
	endStage(met, sp)

	// Optional stage: overlap clustering of the accessed data regions
	// (§6.9). Boxes are built from the already-parsed pre-clean log's
	// summaries, so the stage costs no extra parsing; hash dedup plus the
	// exact grid index keep it near-linear even on all-distinct predicate
	// mixes.
	if cfg.ClusterThreshold > 0 {
		sp = beginStage(root, met, "cluster")
		infos := make([]*skeleton.Info, len(res.Parsed))
		for i, pe := range res.Parsed {
			infos[i] = pe.Info
		}
		res.Clusters = overlap.ClusterInfos(infos, cfg.ClusterThreshold, cfg.Workers, &res.Report.ClusterWork)
		res.ClusterStats = overlap.Summarize(res.Clusters)
		res.Report.ClusterCount = res.ClusterStats.Count
		res.Report.ClusterAvgSize = res.ClusterStats.AvgSize
		sp.SetInt("in", int64(len(infos)))
		sp.SetInt("clusters", int64(res.ClusterStats.Count))
		sp.SetInt("comparisons", res.Report.ClusterWork.Comparisons)
		sp.SetInt("comparisons_avoided", res.Report.ClusterWork.Avoided())
		endStage(met, sp)
		met.Counter("cluster_boxes_total").Add(int64(len(infos)))
		met.Counter("cluster_clusters_total").Add(int64(res.ClusterStats.Count))
		met.Counter("cluster_cells_probed_total").Add(res.Report.ClusterWork.CellsProbed)
		met.Counter("cluster_comparisons_total").Add(res.Report.ClusterWork.Comparisons)
		met.Counter("cluster_comparisons_avoided_total").Add(res.Report.ClusterWork.Avoided())
	}

	// Stage 5: detect antipatterns.
	reg := antipattern.DefaultRegistry(cfg.Catalog, antipattern.Options{
		MinRun:           cfg.MinRun,
		RequireKeyColumn: !cfg.DisableKeyCheck,
	})
	for _, r := range cfg.ExtraRules {
		reg.Register(r)
	}
	sp = beginStage(root, met, "detect")
	res.Instances = reg.DetectParallelSpan(res.Parsed, res.Sessions, cfg.Workers, sp)
	res.Report.AntipatternSummary = antipattern.Summarize(res.Instances)
	// []bool indexed by parsed-log position: instance indices are dense in
	// [0, len(Parsed)), so a map here is pure overhead on template-heavy logs.
	inAnti := make([]bool, len(res.Parsed))
	queriesInAnti := 0
	for _, in := range res.Instances {
		for _, idx := range in.Indices {
			if !inAnti[idx] {
				inAnti[idx] = true
				queriesInAnti++
			}
		}
	}
	res.Report.QueriesInAntipattern = queriesInAnti
	sp.SetInt("sessions", int64(len(res.Sessions)))
	sp.SetInt("instances", int64(len(res.Instances)))
	sp.SetInt("queries_in_antipattern", int64(queriesInAnti))
	endStage(met, sp)
	met.Counter("pipeline_instances_total").Add(int64(len(res.Instances)))

	// Stage 6: solve antipatterns.
	sp = beginStage(root, met, "solve")
	if cfg.DisableSolve {
		res.Clean = res.PreClean.Clone()
		res.Removal = res.PreClean.Clone()
	} else {
		solvers := rewrite.DefaultSolvers(cfg.Catalog)
		solvers = append(solvers, cfg.ExtraSolvers...)
		rres := rewrite.Apply(res.Parsed, res.Instances, solvers)
		res.Clean = rres.Clean
		// The removal log (§6.9) drops every instance member, solvable or
		// not: the entries the detect stage left unmarked.
		res.Removal = make(logmodel.Log, 0, len(res.Parsed)-queriesInAnti)
		for i, pe := range res.Parsed {
			if !inAnti[i] {
				res.Removal = append(res.Removal, pe.Entry)
			}
		}
		res.Report.SolveStats = rres.Stats
		res.Replacements = rres.Replacements
		res.Report.SolvePasses = 1

		// §5.5: merged statements can in rare cases form new solvable
		// antipatterns; optionally iterate to a fixpoint. The shared parser
		// makes each pass parse only the statements the previous pass
		// changed — everything else is a cache hit while it stays cached.
		if cfg.SolveToFixpoint {
			for pass := 1; pass < maxSolvePasses; pass++ {
				psp := sp.StartChild(fmt.Sprintf("pass%02d", pass+1))
				parsed, _ := parser.ParseParallelSpan(res.Clean, cfg.Workers, psp)
				sessions := session.BuildParallel(res.Clean, session.Options{MaxGap: gap, SplitOnLabel: true}, cfg.Workers)
				instances := reg.DetectParallelSpan(parsed, sessions, cfg.Workers, psp)
				next := rewrite.Apply(parsed, instances, solvers)
				psp.SetInt("instances", int64(len(instances)))
				psp.End()
				if len(next.Clean) == len(res.Clean) {
					break
				}
				res.Clean = next.Clean
				res.Report.SolveStats = append(res.Report.SolveStats, next.Stats...)
				res.Report.SolvePasses = pass + 1
			}
		}
	}
	sp.SetInt("passes", int64(res.Report.SolvePasses))
	sp.SetInt("replacements", int64(len(res.Replacements)))
	sp.SetInt("out", int64(len(res.Clean)))
	endStage(met, sp)
	for _, s := range res.Report.SolveStats {
		met.Counter("pipeline_solved_queries_total").Add(int64(s.QueriesBefore - s.QueriesAfter))
	}

	// §6.5: optional SWS treatment of the clean log.
	if cfg.SWSMode != SWSKeep && len(res.SWS) > 0 {
		sp = beginStage(root, met, "sws-mode")
		in := len(res.Clean)
		res.Clean = applySWSMode(res.Clean, res.SWS, cfg.SWSMode, parser, cfg.Workers, sp)
		sp.SetInt("in", int64(in))
		sp.SetInt("out", int64(len(res.Clean)))
		endStage(met, sp)
	}
	res.Report.FinalSize = len(res.Clean)
	met.Text("pipeline_stage").Set("done")

	root.SetInt("in", int64(len(res.Original)))
	root.SetInt("out", int64(len(res.Clean)))
	root.End()
	res.Report.Duration = root.Duration()
	res.Report.Stages = root.Snapshot()
	met.Histogram("pipeline_duration_ns", obs.DurationBucketsNS).Observe(int64(res.Report.Duration))
	return res, nil
}

// applySWSMode drops or unions the clean log's SWS-template queries. The
// run's shared parser makes the lookup parse only rewritten statements.
func applySWSMode(clean logmodel.Log, sws map[uint64]bool, mode SWSMode, parser *parsedlog.Parser, workers int, sp *obs.Span) logmodel.Log {
	parsed, _ := parser.ParseParallelSpan(clean, workers, sp)

	// Group SWS entries per fingerprint, in log order. Fingerprints map to
	// dense group slots (first-appearance order), so the per-entry state —
	// membership, replacement text, group id — lives in preallocated slices
	// indexed by log position instead of per-entry map inserts.
	groupOf := make(map[uint64]int, len(sws))
	var groups [][]int
	isSWS := make([]bool, len(parsed))
	groupAt := make([]int, len(parsed))
	for i, pe := range parsed {
		if pe.Info != nil && sws[pe.Info.Fingerprint] {
			isSWS[i] = true
			g, ok := groupOf[pe.Info.Fingerprint]
			if !ok {
				g = len(groups)
				groups = append(groups, nil)
				groupOf[pe.Info.Fingerprint] = g
			}
			groups[g] = append(groups[g], i)
			groupAt[i] = g
		}
	}

	// For union mode, compute one replacement statement per group; groups
	// whose filters cannot be unioned stay untouched.
	var replaceAt []string
	unioned := make([]bool, len(groups))
	if mode == SWSUnion {
		replaceAt = make([]string, len(parsed))
		for g, idxs := range groups {
			infos := make([]*skeleton.Info, 0, len(idxs))
			for _, i := range idxs {
				infos = append(infos, parsed[i].Info)
			}
			stmt, err := rewrite.UnionTemplate(infos)
			if err != nil {
				continue
			}
			replaceAt[idxs[0]] = stmt
			unioned[g] = true
		}
	}

	out := make(logmodel.Log, 0, len(clean))
	for i, e := range clean {
		if !isSWS[i] {
			out = append(out, e)
			continue
		}
		switch mode {
		case SWSExclude:
			continue
		case SWSUnion:
			if stmt := replaceAt[i]; stmt != "" {
				ne := e
				ne.Statement = stmt
				ne.Rows = -1 // the union's row count is unknown
				out = append(out, ne)
				continue
			}
			if unioned[groupAt[i]] {
				continue // consumed by the group's union query
			}
			out = append(out, e) // group not unionable: keep
		}
	}
	return out
}

// AntipatternTemplates returns the set of template fingerprints that occur
// inside antipattern instances — used to mark antipatterns in Fig. 2(a)-style
// rankings. The set is computed on first use and cached on the Result (safe
// for concurrent callers); treat it as read-only.
func (r *Result) AntipatternTemplates() map[uint64]bool {
	r.antiTmplOnce.Do(func() {
		out := make(map[uint64]bool, len(r.Instances))
		for _, in := range r.Instances {
			for _, idx := range in.Indices {
				e := &r.Parsed[idx]
				if e.Info != nil {
					out[e.Info.Fingerprint] = true
				}
			}
		}
		r.antiTmpl = out
	})
	return r.antiTmpl
}
