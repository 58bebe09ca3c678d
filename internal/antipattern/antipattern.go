// Package antipattern implements the paper's antipattern detection rules:
// the three Stifle classes (Definitions 11–14), the Circuitous Treasure
// Hunt candidate (Definition 15), and the Searching-Nullable-Columns
// extension (Definition 16, §5.4). Rules plug into a Registry so new
// antipatterns can be added with a definition + detection rule (+ optional
// solver in package rewrite), exactly the extension path §5.4 describes.
package antipattern

import (
	"cmp"
	"slices"
	"sort"

	"sqlclean/internal/obs"
	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
)

// Kind names an antipattern type.
type Kind string

// The antipattern kinds shipped with the framework.
const (
	DWStifle Kind = "DW-Stifle"
	DSStifle Kind = "DS-Stifle"
	DFStifle Kind = "DF-Stifle"
	CTH      Kind = "CTH"
	SNC      Kind = "SNC"
)

// Instance is one detected occurrence of an antipattern in the log.
type Instance struct {
	Kind Kind
	// Indices are the positions of the member queries in the parsed log,
	// in log order.
	Indices []int
	// User is the issuing user (IP).
	User string
	// Identity is the pattern-identity string: the skeleton text for
	// single-template antipatterns, or "first ⇒ second" for
	// multi-template ones. Instances with equal Kind and Identity are
	// occurrences of the same (anti)pattern.
	Identity string
	// First and Second are the first two skeleton statements, for
	// Table 6-style reporting. Second equals First for DW-Stifle.
	First, Second string
	// Solvable reports whether package rewrite has a solving solution.
	Solvable bool
}

// Len returns the number of member queries.
func (in Instance) Len() int { return len(in.Indices) }

// Rule is one antipattern detection rule, scanning a single session.
type Rule interface {
	Kind() Kind
	// Detect returns the instances found in the session. Instances of
	// solvable kinds must not overlap each other within one rule.
	Detect(pl parsedlog.Log, sess session.Session) []Instance
}

// Options tune the built-in rules.
type Options struct {
	// MinRun is the minimum number of queries forming a Stifle or CTH
	// instance. The paper requires "two or more"; default 2.
	MinRun int
	// RequireKeyColumn enforces Definition 11's third axiom (the filter
	// column must be a key attribute). Disabling it is the paper's
	// discussed simplification that risks false positives; kept as an
	// ablation switch.
	RequireKeyColumn bool
}

func (o Options) withDefaults() Options {
	if o.MinRun < 2 {
		o.MinRun = 2
	}
	return o
}

// Registry holds the active rules.
type Registry struct {
	rules []Rule
}

// NewRegistry returns a registry with the given rules.
func NewRegistry(rules ...Rule) *Registry { return &Registry{rules: rules} }

// DefaultRegistry returns the paper's rule set: the Stifle classes, CTH
// candidates, and SNC.
func DefaultRegistry(cat *schema.Catalog, opt Options) *Registry {
	opt = opt.withDefaults()
	return NewRegistry(
		&StifleRule{Catalog: cat, Opt: opt},
		&CTHRule{Opt: opt},
		&SNCRule{},
	)
}

// Register appends a rule (the §5.4 extension hook).
func (r *Registry) Register(rule Rule) { r.rules = append(r.rules, rule) }

// Detect runs every rule over every session on the calling goroutine and
// returns all instances, ordered by the position of their first member query
// (the paper's "solving starts with the antipattern which appears in the log
// first", §5.5).
func (r *Registry) Detect(pl parsedlog.Log, sessions []session.Session) []Instance {
	var out []Instance
	for _, sess := range sessions {
		out = r.detectSession(out, pl, sess)
	}
	sortByFirstIndex(out)
	return out
}

// DetectParallel is Detect fanned out over up to `workers` goroutines
// (0 selects GOMAXPROCS, 1 runs serially). Sessions are independent
// detection units — Definition 8 scopes every pattern instance to a single
// session — so each session's rule scan runs on whichever worker is free,
// and the per-session results are merged back in session order before the
// same stable sort Detect applies. The output is therefore identical to
// Detect's. Rules must be safe for concurrent use; the built-in rules are
// stateless and qualify, custom Config.ExtraRules must not mutate shared
// state during Detect.
func (r *Registry) DetectParallel(pl parsedlog.Log, sessions []session.Session, workers int) []Instance {
	return r.DetectParallelSpan(pl, sessions, workers, nil)
}

// DetectParallelSpan is DetectParallel with per-worker child spans attached
// to sp (nil sp skips tracing; the result is unchanged either way).
func (r *Registry) DetectParallelSpan(pl parsedlog.Log, sessions []session.Session, workers int, sp *obs.Span) []Instance {
	perSession := parallel.MapSpan(sp, workers, sessions, func(_ int, sess session.Session) []Instance {
		return r.detectSession(nil, pl, sess)
	})
	var out []Instance
	for _, found := range perSession {
		out = append(out, found...)
	}
	sortByFirstIndex(out)
	return out
}

// detectSession appends every rule's instances in one session to out.
func (r *Registry) detectSession(out []Instance, pl parsedlog.Log, sess session.Session) []Instance {
	for _, rule := range r.rules {
		out = append(out, rule.Detect(pl, sess)...)
	}
	return out
}

// sortByFirstIndex orders instances by their first member query, keeping
// the detection order among instances that start at the same query.
func sortByFirstIndex(out []Instance) {
	slices.SortStableFunc(out, func(a, b Instance) int {
		return cmp.Compare(a.Indices[0], b.Indices[0])
	})
}

// Summary aggregates instances per kind.
type Summary struct {
	Kind Kind
	// Distinct is the number of distinct pattern identities.
	Distinct int
	// Instances is the number of occurrences.
	Instances int
	// Queries is the total number of member queries over all instances.
	Queries int
}

// Summarize groups instances by kind. The result is ordered DW, DS, DF,
// CTH, SNC, then any custom kinds alphabetically.
func Summarize(instances []Instance) []Summary {
	type agg struct {
		ids     map[string]bool
		count   int
		queries int
	}
	byKind := map[Kind]*agg{}
	for _, in := range instances {
		a, ok := byKind[in.Kind]
		if !ok {
			a = &agg{ids: map[string]bool{}}
			byKind[in.Kind] = a
		}
		a.ids[in.Identity] = true
		a.count++
		a.queries += len(in.Indices)
	}
	known := []Kind{DWStifle, DSStifle, DFStifle, CTH, SNC}
	var kinds []Kind
	seen := map[Kind]bool{}
	for _, k := range known {
		if byKind[k] != nil {
			kinds = append(kinds, k)
			seen[k] = true
		}
	}
	var custom []string
	for k := range byKind {
		if !seen[k] {
			custom = append(custom, string(k))
		}
	}
	sort.Strings(custom)
	for _, k := range custom {
		kinds = append(kinds, Kind(k))
	}
	out := make([]Summary, 0, len(kinds))
	for _, k := range kinds {
		a := byKind[k]
		out = append(out, Summary{Kind: k, Distinct: len(a.ids), Instances: a.count, Queries: a.queries})
	}
	return out
}
