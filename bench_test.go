// Benchmarks regenerating the paper's tables and figures (one per
// experiment; see DESIGN.md's per-experiment index) plus the ablation
// benches for the design choices DESIGN.md calls out. The printable versions
// of the experiments live in cmd/experiments; the benchmarks here measure
// the work each experiment does.
package sqlclean_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlclean"
	"sqlclean/internal/colstore"
	"sqlclean/internal/core"
	"sqlclean/internal/dedup"
	"sqlclean/internal/exec"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/recommend"
	"sqlclean/internal/schema"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/storage"
	"sqlclean/internal/stream"
	"sqlclean/internal/workload"
)

// benchScale keeps the per-iteration work small enough for -bench=. runs
// while still exercising every code path of the full pipeline.
const benchScale = 0.25

var (
	benchOnce sync.Once
	benchLog  logmodel.Log
	benchRes  *core.Result
)

func benchSetup(b *testing.B) (logmodel.Log, *core.Result) {
	b.Helper()
	benchOnce.Do(func() {
		benchLog, _ = workload.Generate(workload.DefaultConfig().Scale(benchScale))
		res, err := core.Run(benchLog, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		benchRes = res
	})
	return benchLog, benchRes
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// BenchmarkTable4DedupThreshold measures the duplicate-threshold sweep of
// Table 4 over the SELECT log.
func BenchmarkTable4DedupThreshold(b *testing.B) {
	log, _ := benchSetup(b)
	parsed, _ := parsedlog.Parse(log)
	selects := parsed.SelectsRaw()
	for _, th := range []struct {
		name string
		d    time.Duration
	}{
		{"1s", time.Second},
		{"10s", 10 * time.Second},
		{"unrestricted", dedup.Unrestricted},
	} {
		b.Run(th.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _ := dedup.Remove(selects, th.d)
				if len(out) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkTable5Pipeline measures the full Fig. 1 pipeline (the results
// overview of Table 5 is a by-product of one run).
func BenchmarkTable5Pipeline(b *testing.B) {
	log, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(log, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.FinalSize == 0 {
			b.Fatal("empty clean log")
		}
	}
}

// BenchmarkTable6TopAntipatterns measures aggregating detected instances
// into the most-popular-antipatterns table.
func BenchmarkTable6TopAntipatterns(b *testing.B) {
	_, res := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := map[string]int{}
		for _, in := range res.Instances {
			rows[string(in.Kind)+"|"+in.Identity] += len(in.Indices)
		}
		if len(rows) == 0 {
			b.Fatal("no antipatterns")
		}
	}
}

// BenchmarkTable7TopPatterns measures re-mining templates over the removal
// log (the patterns that remain after cleaning).
func BenchmarkTable7TopPatterns(b *testing.B) {
	_, res := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parsed, _ := parsedlog.Parse(res.Removal)
		ts := pattern.Templates(parsed)
		if len(ts) == 0 {
			b.Fatal("no templates")
		}
	}
}

// BenchmarkTable8SWSSweep measures the 4×5 SWS threshold grid of Table 8.
func BenchmarkTable8SWSSweep(b *testing.B) {
	_, res := benchSetup(b)
	freqs := []float64{10, 1, 0.1, 0.01}
	pops := []int{1, 2, 4, 8, 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid := pattern.SWSSweep(res.Templates, len(res.PreClean), freqs, pops, 0.5)
		if len(grid) != len(pops) {
			b.Fatal("bad grid")
		}
	}
}

// ---------------------------------------------------------------------------
// §6.3 runtime experiment
// ---------------------------------------------------------------------------

type runtimeFixture struct {
	db        *storage.DB
	originals []string
	rewritten []string
	// packed holds one semicolon-joined batch per solvable instance — the
	// Pack refactoring of Example 6.
	packed []string
}

var (
	runtimeOnce sync.Once
	runtimeFix  runtimeFixture
)

func runtimeSetup(b *testing.B) runtimeFixture {
	b.Helper()
	runtimeOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.Humans, cfg.WebUISessions, cfg.SWSBots, cfg.SNCQueries = 0, 0, 0, 0
		cfg.CTHTrueGroups, cfg.CTHFalseGroups = 0, 0
		cfg.DWRuns, cfg.DSRuns, cfg.DFRuns = 20, 0, 5
		cfg.RunLenMin, cfg.RunLenMax = 30, 50
		log, _ := workload.Generate(cfg)
		res, err := core.Run(log, core.Config{})
		if err != nil {
			panic(err)
		}
		for _, in := range res.Instances {
			if !in.Solvable {
				continue
			}
			var members []string
			for _, idx := range in.Indices {
				members = append(members, res.Parsed[idx].Statement)
			}
			runtimeFix.originals = append(runtimeFix.originals, members...)
			runtimeFix.packed = append(runtimeFix.packed, strings.Join(members, "; "))
		}
		for _, r := range res.Replacements {
			runtimeFix.rewritten = append(runtimeFix.rewritten, r.Statement)
		}
		db := storage.NewDB(schema.SkyServer())
		tbl, _ := db.Table("photoprimary")
		all, _ := db.Table("photoobjall")
		// Insert rows for the objids the statements mention.
		seen := map[string]bool{}
		for _, s := range runtimeFix.originals {
			sel, err := sqlparser.ParseSelect(s)
			if err != nil {
				continue
			}
			in := skeleton.Analyze(sel)
			for _, p := range in.Predicates {
				for _, lit := range p.Literals {
					if lit.Kind != "num" || seen[lit.Val] {
						continue
					}
					seen[lit.Val] = true
					row := make(storage.Row, len(tbl.Def.Columns))
					for i, c := range tbl.Def.Columns {
						if c.Name == "objid" {
							var v int64
							for _, ch := range lit.Val {
								v = v*10 + int64(ch-'0')
							}
							row[i] = storage.Int(v)
						} else {
							row[i] = storage.Float(1)
						}
					}
					_ = tbl.Insert(row)
					_ = all.Insert(append(storage.Row{}, row...))
				}
			}
		}
		runtimeFix.db = db
	})
	return runtimeFix
}

// BenchmarkRuntimeOriginal executes the original antipattern statements.
func BenchmarkRuntimeOriginal(b *testing.B) {
	fix := runtimeSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := exec.New(fix.db)
		exec.RegisterSkyFuncs(eng)
		for _, s := range fix.originals {
			if _, err := eng.Execute(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(fix.originals)), "stmts/op")
}

// BenchmarkRuntimeRewritten executes the rewritten statements; the paper's
// §6.3 speedup is the cost-model ratio of the two runs (see
// cmd/experiments -run runtime).
func BenchmarkRuntimeRewritten(b *testing.B) {
	fix := runtimeSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := exec.New(fix.db)
		exec.RegisterSkyFuncs(eng)
		for _, s := range fix.rewritten {
			if _, err := eng.Execute(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(fix.rewritten)), "stmts/op")
}

// BenchmarkAblationPackVsMerge compares the three ways of issuing an
// antipattern instance's work: one statement per query (original), one
// batched request (the Pack refactoring of Example 6), and the merged
// single query (the paper's solving solution). Pack saves round trips only;
// merge saves round trips and server work — the paper's argument for
// merging. The per-op metric reports the virtual cost under the
// client-server cost model.
func BenchmarkAblationPackVsMerge(b *testing.B) {
	fix := runtimeSetup(b)
	model := exec.DefaultCostModel()
	run := func(b *testing.B, stmts []string, batch bool) {
		b.Helper()
		b.ReportAllocs()
		var cost time.Duration
		for i := 0; i < b.N; i++ {
			eng := exec.New(fix.db)
			exec.RegisterSkyFuncs(eng)
			for _, s := range stmts {
				var err error
				if batch {
					_, err = eng.ExecuteBatch(s)
				} else {
					_, err = eng.Execute(s)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			cost = eng.Stats.Cost(model)
		}
		b.ReportMetric(cost.Seconds(), "virtual-s/op")
	}
	b.Run("original", func(b *testing.B) { run(b, fix.originals, false) })
	b.Run("pack", func(b *testing.B) { run(b, fix.packed, true) })
	b.Run("merge", func(b *testing.B) { run(b, fix.rewritten, false) })
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

// BenchmarkFig2aRankSeries measures building the before/after rank series of
// Fig. 2(a): templates of the pre-clean log with antipattern marks plus
// templates of the clean log.
func BenchmarkFig2aRankSeries(b *testing.B) {
	_, res := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anti := res.AntipatternTemplates()
		parsed, _ := parsedlog.Parse(res.Clean)
		after := pattern.Templates(parsed)
		if len(anti) == 0 || len(after) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig2bFrequencyPopularity measures the frequency/user-popularity
// scatter data of Fig. 2(b).
func BenchmarkFig2bFrequencyPopularity(b *testing.B) {
	log, _ := benchSetup(b)
	parsed, _ := parsedlog.Parse(log)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := pattern.Templates(parsed)
		lowPop := 0
		for _, t := range ts {
			if t.UserPopularity == 1 {
				lowPop++
			}
		}
		if lowPop == 0 {
			b.Fatal("no single-user patterns")
		}
	}
}

// BenchmarkFig2cNoUserInfo measures the minimal-input pipeline (timestamps
// only, §6.8) of Fig. 2(c).
func BenchmarkFig2cNoUserInfo(b *testing.B) {
	log, _ := benchSetup(b)
	stripped := log.StripUsers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(stripped, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Templates) == 0 {
			b.Fatal("no templates")
		}
	}
}

// BenchmarkFig2dCTHAggregation measures grouping CTH candidates by identity
// for Fig. 2(d).
func BenchmarkFig2dCTHAggregation(b *testing.B) {
	_, res := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := map[string]int{}
		for _, in := range res.Instances {
			if in.Kind == sqlclean.KindCTH {
				rows[in.Identity] += len(in.Indices)
			}
		}
		if len(rows) == 0 {
			b.Fatal("no CTH candidates")
		}
	}
}

func clusterBoxes(b *testing.B, l logmodel.Log) []overlap.Box {
	b.Helper()
	parsed, _ := parsedlog.Parse(l)
	cache := map[*skeleton.Info]overlap.Box{}
	var boxes []overlap.Box
	for _, pe := range parsed {
		if pe.Info == nil {
			continue
		}
		bx, ok := cache[pe.Info]
		if !ok {
			bx = overlap.FromInfo(pe.Info)
			cache[pe.Info] = bx
		}
		boxes = append(boxes, bx)
	}
	return boxes
}

// BenchmarkFig3Clustering measures the §6.9 clustering on the three log
// variants (raw / clean / removal) at threshold 0.9.
func BenchmarkFig3Clustering(b *testing.B) {
	_, res := benchSetup(b)
	for _, v := range []struct {
		name string
		l    logmodel.Log
	}{
		{"raw", res.PreClean},
		{"cleaning", res.Clean},
		{"removal", res.Removal},
	} {
		boxes := clusterBoxes(b, v.l)
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clusters := overlap.ClusterBoxes(boxes, 0.9)
				if len(clusters) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// BenchmarkFig4ClusterSizes measures the cluster-size-by-rank computation of
// Fig. 4 (clustering plus descending-size summary).
func BenchmarkFig4ClusterSizes(b *testing.B) {
	_, res := benchSetup(b)
	boxes := clusterBoxes(b, res.Clean)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := overlap.Summarize(overlap.ClusterBoxes(boxes, 0.9))
		if !sort.SliceIsSorted(st.Sizes, func(a, c int) bool { return st.Sizes[a] > st.Sizes[c] }) {
			b.Fatal("sizes not sorted")
		}
	}
}

// synthOverlapBoxes builds n boxes drawn from `distinct` SkyServer-bot-shaped
// templates (htmid windows marching across the sky in a few widths, with
// occasional ra constraints). distinct == n gives the grid's worst input for
// a leader scan — every box founds or probes against a long leader list —
// while a small distinct count models the crawler-dominated real mix.
func synthOverlapBoxes(n, distinct int) []overlap.Box {
	widths := []float64{1e5, 2e5, 5e5}
	templates := make([]overlap.Box, distinct)
	for i := range templates {
		w := widths[i%len(widths)]
		lo := float64(i) * 1e5
		bx := overlap.Box{
			Tables: map[string]bool{"photoobj": true},
			Dims:   map[string]overlap.Dim{"htmid": {Interval: overlap.Interval{Lo: lo, Hi: lo + w}}},
		}
		if i%7 == 0 {
			ra := float64(i % 360)
			bx.Dims["ra"] = overlap.Dim{Interval: overlap.Interval{Lo: ra, Hi: ra + 0.5}}
		}
		templates[i] = bx
	}
	boxes := make([]overlap.Box, n)
	for i := range boxes {
		boxes[i] = templates[i%distinct]
	}
	return boxes
}

// BenchmarkClusterBoxes is the quadratic leader-scan baseline at 1k and 10k
// boxes, low (64 distinct) and high (all distinct) distinctness.
func BenchmarkClusterBoxes(b *testing.B) {
	for _, c := range []struct {
		name        string
		n, distinct int
	}{
		{"1k_low", 1000, 64},
		{"1k_high", 1000, 1000},
		{"10k_low", 10000, 64},
		{"10k_high", 10000, 10000},
	} {
		boxes := synthOverlapBoxes(c.n, c.distinct)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(overlap.ClusterBoxes(boxes, 0.9)) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// BenchmarkClusterBoxesGrid is the clustering path on the same inputs: one
// worker, so it times the conversion of the map boxes to flat boxes, the
// hash dedup and the serial grid over the distinct flat boxes.
func BenchmarkClusterBoxesGrid(b *testing.B) {
	for _, c := range []struct {
		name        string
		n, distinct int
	}{
		{"1k_low", 1000, 64},
		{"1k_high", 1000, 1000},
		{"10k_low", 10000, 64},
		{"10k_high", 10000, 10000},
	} {
		boxes := synthOverlapBoxes(c.n, c.distinct)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(overlap.ClusterBoxesFastGrid(boxes, 0.9, 1, nil)) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkAblationFingerprintVsLoose compares the exact-fingerprint
// template matching (used) against a looser clause-wise grouping that first
// buckets by FROM skeleton and then compares the remaining clauses pairwise.
func BenchmarkAblationFingerprintVsLoose(b *testing.B) {
	log, _ := benchSetup(b)
	parsed, _ := parsedlog.Parse(log)
	sel := parsed.Selects()

	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts := map[uint64]int{}
			for _, pe := range sel {
				counts[pe.Info.Fingerprint]++
			}
			if len(counts) == 0 {
				b.Fatal("no templates")
			}
		}
	})
	b.Run("loose", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			type repr struct{ swc, ssc string }
			buckets := map[string][]repr{}
			matched := 0
			for _, pe := range sel {
				in := pe.Info
				found := false
				for _, r := range buckets[in.SFC] {
					if r.swc == in.SWC && strings.HasPrefix(r.ssc, in.SSC) {
						found = true
						break
					}
				}
				if found {
					matched++
					continue
				}
				buckets[in.SFC] = append(buckets[in.SFC], repr{in.SWC, in.SSC})
			}
			if matched == 0 {
				b.Fatal("nothing matched")
			}
		}
	})
}

// BenchmarkAblationKeyCheck compares Stifle detection with and without
// Definition 11's key-attribute axiom.
func BenchmarkAblationKeyCheck(b *testing.B) {
	log, _ := benchSetup(b)
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with-key-check", false}, {"without-key-check", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(log, core.Config{DisableKeyCheck: v.disable})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Instances) == 0 {
					b.Fatal("no instances")
				}
			}
		})
	}
}

// BenchmarkAblationDedupStrategy compares the streaming hash-window dedup
// (used) against a sort-based batch dedup.
func BenchmarkAblationDedupStrategy(b *testing.B) {
	log, _ := benchSetup(b)
	parsed, _ := parsedlog.Parse(log)
	selects := parsed.SelectsRaw()

	b.Run("hash-window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := dedup.Remove(selects, time.Second)
			if len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("sort-based", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			work := selects.Clone()
			sort.SliceStable(work, func(x, y int) bool {
				if work[x].User != work[y].User {
					return work[x].User < work[y].User
				}
				if work[x].Statement != work[y].Statement {
					return work[x].Statement < work[y].Statement
				}
				return work[x].Time.Before(work[y].Time)
			})
			kept := work[:0]
			for j, e := range work {
				if j > 0 && work[j-1].User == e.User && work[j-1].Statement == e.Statement &&
					e.Time.Sub(work[j-1].Time) <= time.Second {
					continue
				}
				kept = append(kept, e)
			}
			out := logmodel.Log(kept).Clone()
			out.SortStable()
			if len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkAblationFixpoint compares one cleaning pass (used; §5.5 found a
// 0.09 % residue) against cleaning to a fixpoint.
func BenchmarkAblationFixpoint(b *testing.B) {
	log, _ := benchSetup(b)
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(log, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixpoint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur := log
			for pass := 0; pass < 5; pass++ {
				res, err := core.Run(cur, core.Config{NoDedup: pass > 0})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Clean) == len(cur) {
					break
				}
				cur = res.Clean
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Microbenchmarks for the hot substrates
// ---------------------------------------------------------------------------

// BenchmarkParseStatement measures parsing one SkyServer-style statement.
func BenchmarkParseStatement(b *testing.B) {
	const q = "SELECT g.objid, g.ra, g.dec FROM photoobjall as g JOIN fGetNearbyObjEq(180.5, 2.3, 1.0) as gn on g.objid=gn.objid LEFT OUTER JOIN specobj s ON s.bestobjid=gn.objid"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.ParseSelect(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeletonize measures template extraction for a parsed statement.
func BenchmarkSkeletonize(b *testing.B) {
	sel, err := sqlparser.ParseSelect("SELECT p.objid, p.ra FROM fGetObjFromRect(1, 2, 3, 4) n, photoprimary p WHERE n.objid = p.objid AND p.r BETWEEN 14 AND 18")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := skeleton.Analyze(sel)
		if in.Fingerprint == 0 {
			b.Fatal("zero fingerprint")
		}
	}
}

// BenchmarkParsedLogCache measures parsing a full log with the
// statement-text cache (real logs repeat a few templates millions of times).
func BenchmarkParsedLogCache(b *testing.B) {
	log, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, st := parsedlog.Parse(log)
		if st.Selects == 0 || len(pl) != len(log) {
			b.Fatal("bad parse")
		}
	}
}

// BenchmarkParseParallel measures the sharded concurrent parser at several
// worker counts against the same log; workers=1 is the serial fallback. On
// multi-core hosts the speedup approaches the worker count until the memory
// bus saturates; on a single-core host all rows collapse to the serial cost.
func BenchmarkParseParallel(b *testing.B) {
	log, _ := benchSetup(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, st := parsedlog.ParseParallel(log, w)
				if st.Selects == 0 || len(pl) != len(log) {
					b.Fatal("bad parse")
				}
			}
		})
	}
}

// BenchmarkPipelineParallel measures the full pipeline at several worker
// counts (workers=1 is the serial path), making the serial-vs-parallel
// crossover visible in BENCH snapshots. Compare against the seed's
// BenchmarkTable5Pipeline for the total win: the single-parse rework speeds
// up every worker count, and parallelism stacks on top where cores exist.
// The cluster=0.9 rows add the clustering stage, which runs inline at one
// worker and beside the cleaning stages at more.
func BenchmarkPipelineParallel(b *testing.B) {
	log, _ := benchSetup(b)
	for _, row := range []struct {
		prefix  string
		cluster float64
	}{{"", 0}, {"cluster=0.9/", 0.9}} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sworkers=%d", row.prefix, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(log, core.Config{Workers: w, ClusterThreshold: row.cluster})
					if err != nil {
						b.Fatal(err)
					}
					if res.Report.FinalSize == 0 {
						b.Fatal("empty clean log")
					}
				}
			})
		}
	}
}

// BenchmarkPipelineSeedSerial reproduces the seed pipeline's cost — the new
// serial run plus the fresh-cache re-parse of the pre-clean log the seed's
// stage 3 performed — so the algorithmic part of the PipelineParallel win
// stays measurable after the seed code is gone.
func BenchmarkPipelineSeedSerial(b *testing.B) {
	log, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(log, core.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		reparsed, _ := parsedlog.Parse(res.PreClean)
		if len(reparsed) == 0 {
			b.Fatal("bad parse")
		}
	}
}

// benchBig caches a scale-4 (~40k entry) log: large enough that the sharded
// dedup takes its parallel path (it falls back to the serial window below a
// few thousand entries, where fan-out costs more than it saves).
var (
	benchBigOnce sync.Once
	benchBigLog  logmodel.Log
)

func benchBigSetup(b *testing.B) logmodel.Log {
	b.Helper()
	benchBigOnce.Do(func() {
		benchBigLog, _ = workload.Generate(workload.DefaultConfig().Scale(4))
		benchBigLog.SortStable()
	})
	return benchBigLog
}

// BenchmarkDedupSharded measures §5.2 duplicate deletion: the serial sliding
// window against the sharded variant at several worker counts on the scale-4
// log. The sharded form partitions by (user, statement) hash — every dedup
// key lives wholly in one shard, so the per-shard windows are independent.
// On multi-core hosts the speedup approaches the worker count; on a
// single-core host the rows collapse to the serial cost plus the bucketing
// passes.
func BenchmarkDedupSharded(b *testing.B) {
	log := benchBigSetup(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, res := dedup.Remove(log, time.Second)
			if len(out) == 0 || res.Removed == 0 {
				b.Fatal("bad dedup")
			}
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, res := dedup.RemoveSharded(log, time.Second, w)
				if len(out) == 0 || res.Removed == 0 {
					b.Fatal("bad dedup")
				}
			}
		})
	}
}

// BenchmarkStreamSharded measures the streaming pipeline: the serial stream
// (one shard, one worker) against the user-sharded engine at several worker
// counts (sessions are per user, so partitions process concurrently end to
// end — parse, dedup, detect, solve).
func BenchmarkStreamSharded(b *testing.B) {
	log, _ := benchSetup(b)
	sorted := append(logmodel.Log(nil), log...)
	sorted.SortStable()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, st, err := stream.RunSharded(sorted, stream.ShardedConfig{Shards: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 || st.Out == 0 {
				b.Fatal("empty stream output")
			}
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, st, err := stream.RunSharded(sorted, stream.ShardedConfig{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 || st.Out == 0 {
					b.Fatal("empty stream output")
				}
			}
		})
	}
}

// BenchmarkRecommendTraining measures training the §7 next-query
// recommender on the pre-clean log.
func BenchmarkRecommendTraining(b *testing.B) {
	_, res := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := recommend.Train(res.Parsed, res.Sessions)
		if m.Observations() == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkRecommendContamination measures the contamination evaluation of
// a trained model.
func BenchmarkRecommendContamination(b *testing.B) {
	_, res := benchSetup(b)
	m := recommend.Train(res.Parsed, res.Sessions)
	anti := res.AntipatternTemplates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := m.Contamination(anti)
		if rep.States == 0 {
			b.Fatal("no states")
		}
	}
}

// BenchmarkAblationClusterFastVsSlow compares the naive O(n·k) leader
// clustering against the clustering path, whose identical-box dedup
// exploits the paper's observation that distances are almost always 0 or 1
// (and whose grid prunes the leader scan over the distinct boxes).
func BenchmarkAblationClusterFastVsSlow(b *testing.B) {
	_, res := benchSetup(b)
	boxes := clusterBoxes(b, res.PreClean)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(overlap.ClusterBoxes(boxes, 0.9)) == 0 {
				b.Fatal("no clusters")
			}
		}
	})
	b.Run("dedup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(overlap.ClusterBoxesFastGrid(boxes, 0.9, 1, nil)) == 0 {
				b.Fatal("no clusters")
			}
		}
	})
}

// BenchmarkObsOverhead measures the cost of the observability layer: the
// same pipeline run with no metrics sink (the nil fast path every library
// caller gets by default) versus a fully attached registry with the worker
// pool instrumented. The two must stay within a few percent of each other —
// the contract that lets instrumentation stay on in production.
func BenchmarkObsOverhead(b *testing.B) {
	log, _ := benchSetup(b)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(log, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Report.FinalSize == 0 {
				b.Fatal("empty clean log")
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		reg := obs.NewRegistry()
		parallel.Instrument(reg)
		defer parallel.Instrument(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(log, core.Config{Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			if res.Report.FinalSize == 0 {
				b.Fatal("empty clean log")
			}
		}
	})
}

// benchColstoreSetup journals the bench log into a fresh WAL directory
// (small segments, so compaction produces several blocks) and returns it
// together with the journaled byte size and the offline classifier the
// -compact subcommand uses. The classifier's parser caches by statement
// text, so repeated templates cost a map hit — the daemon's steady state.
func benchColstoreSetup(b *testing.B) (walDir string, walBytes int64, classify colstore.Classifier) {
	b.Helper()
	log, _ := benchSetup(b)
	walDir = filepath.Join(b.TempDir(), "wal")
	jw, err := journal.Open(journal.Options{Dir: walDir, SegmentBytes: 64 << 10, Policy: journal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := jw.AppendBatch(log); err != nil {
		b.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			b.Fatal(err)
		}
		walBytes += fi.Size()
	}
	parser := parsedlog.NewParser()
	classify = func(stmt string) colstore.Classification {
		pe := parser.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		return colstore.Classification{EngineFP: pe.Info.Fingerprint}
	}
	return walDir, walBytes, classify
}

// BenchmarkColstoreCompact measures compacting a full WAL directory into
// columnar blocks — the work the daemon's snapshot path does under -retain.
// The compressed-ratio metric is block bytes over journal bytes (the
// acceptance bar is ≤0.20 on the 100k-entry log).
func BenchmarkColstoreCompact(b *testing.B) {
	log, _ := benchSetup(b)
	walDir, walBytes, classify := benchColstoreSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var blockBytes int64
	for i := 0; i < b.N; i++ {
		st, err := colstore.Open(colstore.Options{Dir: filepath.Join(b.TempDir(), fmt.Sprintf("col%d", i))})
		if err != nil {
			b.Fatal(err)
		}
		n, err := st.CompactWALDir(walDir, true, classify)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(log) {
			b.Fatalf("compacted %d of %d entries", n, len(log))
		}
		_, blockBytes = st.Stats()
	}
	b.ReportMetric(float64(len(log)), "entries/op")
	if walBytes > 0 {
		b.ReportMetric(float64(blockBytes)/float64(walBytes), "compressed-ratio")
	}
}

// BenchmarkColstoreScan measures reading every entry back out of the blocks
// — the full-decode path behind sqlclean -scan and the server's retention
// reads (GET /history takes the cheaper index-plus-two-columns path).
func BenchmarkColstoreScan(b *testing.B) {
	log, _ := benchSetup(b)
	walDir, _, classify := benchColstoreSetup(b)
	dir := filepath.Join(b.TempDir(), "col")
	st, err := colstore.Open(colstore.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.CompactWALDir(walDir, true, classify); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := colstore.NewReader(dir).Scan(colstore.ScanOptions{}, func(_ uint64, e logmodel.Entry) error {
			if e.Statement == "" {
				return fmt.Errorf("empty statement at entry %d", n)
			}
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(log) {
			b.Fatalf("scanned %d of %d entries", n, len(log))
		}
	}
	b.ReportMetric(float64(len(log)), "entries/op")
}

// BenchmarkStreamPipeline measures the serial streaming pipeline (one shard,
// one worker) against the batch pipeline (BenchmarkTable5Pipeline) on the
// same log.
func BenchmarkStreamPipeline(b *testing.B) {
	log, _ := benchSetup(b)
	sorted := log.Clone()
	sorted.SortStable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := stream.RunSharded(sorted, stream.ShardedConfig{Shards: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}
