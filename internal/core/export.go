package core

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
	"time"

	"sqlclean/internal/obs"
	"sqlclean/internal/pattern"
	"sqlclean/internal/stream"
)

// The JSON export is the machine-readable counterpart of Fig. 1's result
// artifacts: the statistics block, the query templates, the mined patterns
// and every antipattern instance (with concrete statements), so downstream
// analyses can consume a cleaning run without linking against the library.

// ExportDoc is the top-level JSON document.
type ExportDoc struct {
	Report       ReportJSON        `json:"report"`
	Templates    []TemplateJSON    `json:"templates"`
	Sequences    []SequenceJSON    `json:"sequences,omitempty"`
	Instances    []InstanceJSON    `json:"instances"`
	Replacements []ReplacementJSON `json:"replacements,omitempty"`
}

// ReportJSON mirrors Report with stable JSON names.
type ReportJSON struct {
	SizeOriginal    int `json:"size_original"`
	CountSelect     int `json:"count_select"`
	SizeAfterDedup  int `json:"size_after_dedup"`
	DuplicatesFound int `json:"duplicates_found"`
	FinalSize       int `json:"final_size"`
	CountTemplates  int `json:"count_templates"`
	MaxTemplateFreq int `json:"max_template_frequency"`
	CountDML        int `json:"count_dml"`
	CountDDL        int `json:"count_ddl"`
	CountExec       int `json:"count_exec"`
	CountErrors     int `json:"count_errors"`
	SolvePasses     int `json:"solve_passes"`
	SWSTemplates    int `json:"sws_templates"`
	SWSQueries      int `json:"sws_queries"`
	DistinctUsers   int `json:"distinct_users"`

	// Clustering summary (present only when the run clustered).
	ClusterCount              int     `json:"cluster_count,omitempty"`
	ClusterAvgSize            float64 `json:"cluster_avg_size,omitempty"`
	ClusterComparisons        int64   `json:"cluster_comparisons,omitempty"`
	ClusterComparisonsAvoided int64   `json:"cluster_comparisons_avoided,omitempty"`

	// DurationNS is the run's wall-clock time in nanoseconds; Stages is
	// the hierarchical stage-timing tree (per-stage durations,
	// cardinalities, and per-worker utilization for parallel stages).
	DurationNS int64            `json:"duration_ns"`
	Stages     *obs.StageTiming `json:"stages,omitempty"`

	Antipatterns []AntipatternSummaryJSON `json:"antipatterns"`
	Solves       []SolveJSON              `json:"solves,omitempty"`
}

// AntipatternSummaryJSON is one per-kind aggregate.
type AntipatternSummaryJSON struct {
	Kind      string `json:"kind"`
	Distinct  int    `json:"distinct"`
	Instances int    `json:"instances"`
	Queries   int    `json:"queries"`
}

// SolveJSON is one per-kind solving aggregate.
type SolveJSON struct {
	Kind          string `json:"kind"`
	Solved        int    `json:"solved"`
	Failed        int    `json:"failed"`
	QueriesBefore int    `json:"queries_before"`
	QueriesAfter  int    `json:"queries_after"`
}

// TemplateJSON is one query template's statistics.
type TemplateJSON struct {
	Fingerprint    uint64  `json:"fingerprint"`
	Skeleton       string  `json:"skeleton"`
	Frequency      int     `json:"frequency"`
	UserPopularity int     `json:"user_popularity"`
	DisjointRatio  float64 `json:"disjoint_ratio"`
	SWS            bool    `json:"sws"`
	Antipattern    bool    `json:"antipattern"`
	Example        string  `json:"example"`
}

// SequenceJSON is one multi-template pattern.
type SequenceJSON struct {
	Skeletons      []string `json:"skeletons"`
	Frequency      int      `json:"frequency"`
	Queries        int      `json:"queries"`
	UserPopularity int      `json:"user_popularity"`
}

// InstanceJSON is one antipattern instance with its concrete statements.
type InstanceJSON struct {
	Kind       string    `json:"kind"`
	User       string    `json:"user,omitempty"`
	Identity   string    `json:"identity"`
	Solvable   bool      `json:"solvable"`
	FirstTime  time.Time `json:"first_time"`
	Statements []string  `json:"statements"`
}

// ReplacementJSON is one solved instance's rewrite.
type ReplacementJSON struct {
	Kind      string `json:"kind"`
	Replaced  int    `json:"replaced"`
	Statement string `json:"statement"`
}

// Export builds the JSON document for a pipeline result. maxInstances
// bounds the instance list (0 = all).
func Export(res *Result, maxInstances int) ExportDoc {
	doc := ExportDoc{}
	r := res.Report
	doc.Report = ReportJSON{
		SizeOriginal:    r.SizeOriginal,
		CountSelect:     r.CountSelect,
		SizeAfterDedup:  r.SizeAfterDedup,
		DuplicatesFound: r.DuplicatesFound,
		FinalSize:       r.FinalSize,
		CountTemplates:  r.CountTemplates,
		MaxTemplateFreq: r.MaxTemplateFreq,
		CountDML:        r.CountDML,
		CountDDL:        r.CountDDL,
		CountExec:       r.CountExec,
		CountErrors:     r.CountErrors,
		SolvePasses:     r.SolvePasses,
		SWSTemplates:    r.SWSTemplates,
		SWSQueries:      r.SWSQueries,
		DistinctUsers:   r.DistinctUsers,
		DurationNS:      int64(r.Duration),

		ClusterCount:              r.ClusterCount,
		ClusterAvgSize:            r.ClusterAvgSize,
		ClusterComparisons:        r.ClusterWork.Comparisons,
		ClusterComparisonsAvoided: r.ClusterWork.Avoided(),
	}
	if r.Stages.Name != "" {
		stages := r.Stages
		doc.Report.Stages = &stages
	}
	for _, a := range r.AntipatternSummary {
		doc.Report.Antipatterns = append(doc.Report.Antipatterns, AntipatternSummaryJSON{
			Kind: string(a.Kind), Distinct: a.Distinct, Instances: a.Instances, Queries: a.Queries,
		})
	}
	for _, s := range r.SolveStats {
		doc.Report.Solves = append(doc.Report.Solves, SolveJSON{
			Kind: string(s.Kind), Solved: s.Solved, Failed: s.Failed,
			QueriesBefore: s.QueriesBefore, QueriesAfter: s.QueriesAfter,
		})
	}

	anti := res.AntipatternTemplates()
	for _, t := range res.Templates {
		doc.Templates = append(doc.Templates, templateRow(t, res.SWS[t.Fingerprint], anti[t.Fingerprint]))
	}
	for _, sp := range res.Sequences {
		doc.Sequences = append(doc.Sequences, SequenceJSON{
			Skeletons:      sp.Skeletons,
			Frequency:      sp.Frequency,
			Queries:        sp.Queries,
			UserPopularity: sp.UserPopularity,
		})
	}
	for i, in := range res.Instances {
		if maxInstances > 0 && i >= maxInstances {
			break
		}
		ij := InstanceJSON{
			Kind:      string(in.Kind),
			User:      in.User,
			Identity:  in.Identity,
			Solvable:  in.Solvable,
			FirstTime: res.Parsed[in.Indices[0]].Time,
		}
		for _, idx := range in.Indices {
			ij.Statements = append(ij.Statements, res.Parsed[idx].Statement)
		}
		doc.Instances = append(doc.Instances, ij)
	}
	for _, rp := range res.Replacements {
		doc.Replacements = append(doc.Replacements, ReplacementJSON{
			Kind: string(rp.Kind), Replaced: rp.Replaced, Statement: rp.Statement,
		})
	}
	return doc
}

// templateRow is one template's row of either export.
func templateRow(t pattern.TemplateStats, sws, antipattern bool) TemplateJSON {
	return TemplateJSON{
		Fingerprint:    t.Fingerprint,
		Skeleton:       t.Skeleton,
		Frequency:      t.Frequency,
		UserPopularity: t.UserPopularity,
		DisjointRatio:  t.DisjointRatio(),
		SWS:            sws,
		Antipattern:    antipattern,
		Example:        t.Example,
	}
}

// StreamDoc is the streaming counterpart of ExportDoc: what a streaming
// engine knows of the same result, under the same JSON names. GET /report
// wraps it with the daemon's own fields; sqlclean -stream -json writes it
// as it is.
type StreamDoc struct {
	Report    ReportJSON     `json:"report"`
	Stream    stream.Stats   `json:"stream"`
	Templates []TemplateJSON `json:"templates,omitempty"`
	Sketch    SketchJSON     `json:"sketches"`
}

// SketchJSON repeats the distinct-user count beside the SWS counts. The
// block keeps its name and its field names from when the count was an
// estimate.
type SketchJSON struct {
	// DistinctUsersEstimate is the exact distinct-user count,
	// report.distinct_users.
	DistinctUsersEstimate int64 `json:"distinct_users_estimate"`
	// SWSTemplates/SWSQueries are report.sws_templates/sws_queries.
	SWSTemplates int `json:"sws_templates"`
	SWSQueries   int `json:"sws_queries"`
}

// ExportStream builds the streaming document from the engine's exact
// tables, every template's row included. It reads Stats, Templates,
// TemplateKinds and DistinctUsers once each, and applies the batch SWS
// predicate once, over every accepted SELECT, open sessions included. Once
// the engine is closed, every field it tracks equals Export's over the batch
// result of the same log; a row is an antipattern when the engine attributed
// a kind to its template. What the engine does not track stays zero or
// empty: a row's example, a kind's distinct and queries, the DML, DDL, EXEC
// and error counts, and the solve aggregates. Kinds are ordered by name.
func ExportStream(eng *stream.Sharded) StreamDoc {
	st := eng.Stats()
	templates := eng.Templates()
	kinds := eng.TemplateKinds()
	sws := pattern.ClassifySWS(templates, st.Selects, pattern.DefaultSWSOptions())
	doc := StreamDoc{
		Report: ReportJSON{
			SizeOriginal:    st.In,
			CountSelect:     st.Selects + st.Duplicates,
			SizeAfterDedup:  st.Selects,
			DuplicatesFound: st.Duplicates,
			FinalSize:       st.Out,
			CountTemplates:  len(templates),
			SolvePasses:     1,
			DistinctUsers:   eng.DistinctUsers(),
		},
		Stream: st,
	}
	r := &doc.Report
	if len(templates) > 0 {
		r.MaxTemplateFreq = templates[0].Frequency
	}
	for _, t := range templates {
		row := templateRow(t, sws[t.Fingerprint], len(kinds[t.Fingerprint]) > 0)
		if row.SWS {
			r.SWSTemplates++
			r.SWSQueries += t.Frequency
		}
		doc.Templates = append(doc.Templates, row)
	}
	doc.Sketch = SketchJSON{DistinctUsersEstimate: int64(r.DistinctUsers), SWSTemplates: r.SWSTemplates, SWSQueries: r.SWSQueries}
	for kind, n := range st.Antipatterns {
		r.Antipatterns = append(r.Antipatterns, AntipatternSummaryJSON{Kind: string(kind), Instances: n})
	}
	slices.SortFunc(r.Antipatterns, func(a, b AntipatternSummaryJSON) int { return strings.Compare(a.Kind, b.Kind) })
	return doc
}

// WriteJSON writes the export document, indented, to w.
func WriteJSON(w io.Writer, res *Result, maxInstances int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Export(res, maxInstances))
}

// ReadJSON reads back an export document.
func ReadJSON(r io.Reader) (ExportDoc, error) {
	var doc ExportDoc
	err := json.NewDecoder(r).Decode(&doc)
	return doc, err
}
