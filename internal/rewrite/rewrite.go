// Package rewrite implements the solving solutions of the paper (§4.2,
// §5.5): DW-Stifle instances become a single query with an IN list
// (Example 10), DS-Stifle instances a single query with the union of the
// select lists (Example 12), DF-Stifle instances one join query over the
// shared key (Example 14), and SNC comparisons become IS [NOT] NULL. CTH
// candidates have no solving solution and are left in place.
package rewrite

import (
	"fmt"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/sqlast"
)

// Solver rewrites instances of one antipattern kind into a single statement.
type Solver interface {
	Kind() antipattern.Kind
	// Solve produces the replacement statement for the instance. The parsed
	// log keeps no syntax trees; a solver re-parses the members it rewrites
	// (parsedlog.Tree) and owns the trees it gets.
	Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error)
}

// Stats reports what Apply did, per antipattern kind.
type Stats struct {
	Kind antipattern.Kind
	// Solved counts instances successfully rewritten.
	Solved int
	// Failed counts instances whose solver returned an error; their
	// queries stay in the clean log untouched.
	Failed int
	// QueriesBefore and QueriesAfter count member statements before and
	// after rewriting solved instances.
	QueriesBefore, QueriesAfter int
}

// Replacement records one solved instance: the statement that replaced its
// member queries and where it sits in the clean log.
type Replacement struct {
	Kind antipattern.Kind
	// CleanIndex is the position of the replacement in Result.Clean.
	CleanIndex int
	// Statement is the solved SQL text.
	Statement string
	// Replaced is the number of original queries it stands for.
	Replaced int
}

// Result is the outcome of one Apply pass.
type Result struct {
	// Clean is the log with solvable antipattern instances rewritten.
	Clean logmodel.Log
	// Stats aggregates per kind, ordered by kind name as produced.
	Stats []Stats
	// Replacements lists every solved instance in clean-log order.
	Replacements []Replacement
}

// DefaultSolvers returns the solvers for the built-in solvable kinds.
func DefaultSolvers(cat *schema.Catalog) []Solver {
	return []Solver{
		&DWSolver{},
		&DSSolver{},
		&DFSolver{Catalog: cat},
		&SNCSolver{},
	}
}

// Apply rewrites the parsed log: each solvable instance is replaced by its
// solved statement at the position of its first member; unsolvable-instance
// members stay. Overlapping solvable instances are applied in log order
// (first come, first solved); an instance overlapping an already-solved one
// is skipped and left untouched.
func Apply(pl parsedlog.Log, instances []antipattern.Instance, solvers []Solver) Result {
	sv := solve(pl, instances, solvers)
	res := Result{Clean: make(logmodel.Log, 0, len(pl)-sv.ndropped), Stats: sv.stats}
	for i, e := range pl {
		if r, ok := sv.replaceAt[i]; ok {
			res.Replacements = append(res.Replacements, Replacement{
				Kind:       r.kind,
				CleanIndex: len(res.Clean),
				Statement:  r.stmt,
				Replaced:   r.replaced,
			})
			res.Clean = append(res.Clean, r.entry(e.Entry))
			continue
		}
		if !sv.dropped(i) {
			res.Clean = append(res.Clean, e.Entry)
		}
	}
	return res
}

// ApplyParsed is Apply for a caller that keeps parse results, such as the
// streaming engine: the clean log carries each kept entry's parse result,
// and each replacement statement is parsed with p once, here. It returns
// the clean log and Apply's Stats.
func ApplyParsed(pl parsedlog.Log, instances []antipattern.Instance, solvers []Solver, p *parsedlog.Parser) (parsedlog.Log, []Stats) {
	sv := solve(pl, instances, solvers)
	clean := make(parsedlog.Log, 0, len(pl)-sv.ndropped)
	for i, e := range pl {
		if r, ok := sv.replaceAt[i]; ok {
			clean = append(clean, p.ParseEntry(r.entry(e.Entry)))
			continue
		}
		if !sv.dropped(i) {
			clean = append(clean, e)
		}
	}
	return clean, sv.stats
}

// replacement is one solved instance's statement, at its first member.
type replacement struct {
	stmt     string
	rows     int64
	kind     antipattern.Kind
	replaced int
}

// entry is the clean-log entry that replaces first, the instance's first
// member.
func (r replacement) entry(first logmodel.Entry) logmodel.Entry {
	first.Statement = r.stmt
	first.Rows = r.rows
	return first
}

// solution is what solving decided for a log. Its maps and slices stay nil
// until an instance is solved, so a session without one allocates nothing.
type solution struct {
	replaceAt map[int]replacement // first member's index -> replacement
	drop      []bool              // true: entry consumed by a solved instance
	ndropped  int
	stats     []Stats // per kind, in the order kinds were first met
}

// dropped reports whether entry i was consumed by a solved instance.
func (sv *solution) dropped(i int) bool { return sv.drop != nil && sv.drop[i] }

// solve runs the solvers over the solvable instances in log order (§5.5),
// skipping instances that touch an already-consumed entry.
func solve(pl parsedlog.Log, instances []antipattern.Instance, solvers []Solver) solution {
	var sv solution
	for _, inst := range instances {
		if !inst.Solvable {
			continue
		}
		// A later solver of a kind overrides an earlier one.
		var solver Solver
		for i := len(solvers) - 1; i >= 0; i-- {
			if solvers[i].Kind() == inst.Kind {
				solver = solvers[i]
				break
			}
		}
		if solver == nil {
			continue
		}
		overlap := false
		for _, idx := range inst.Indices {
			if _, ok := sv.replaceAt[idx]; ok || sv.dropped(idx) {
				overlap = true
				break
			}
		}
		s := sv.stat(inst.Kind)
		if overlap {
			continue
		}
		stmt, err := solver.Solve(pl, inst)
		if err != nil {
			s.Failed++
			continue
		}
		s.Solved++
		s.QueriesBefore += len(inst.Indices)
		s.QueriesAfter++
		if sv.replaceAt == nil {
			sv.replaceAt = map[int]replacement{}
			sv.drop = make([]bool, len(pl))
		}
		sv.replaceAt[inst.Indices[0]] = replacement{stmt: stmt, rows: sumRows(pl, inst.Indices), kind: inst.Kind, replaced: len(inst.Indices)}
		for _, idx := range inst.Indices[1:] {
			if !sv.drop[idx] {
				sv.drop[idx] = true
				sv.ndropped++
			}
		}
	}
	return sv
}

// stat returns the Stats of kind k, adding them on first use.
func (sv *solution) stat(k antipattern.Kind) *Stats {
	for i := range sv.stats {
		if sv.stats[i].Kind == k {
			return &sv.stats[i]
		}
	}
	sv.stats = append(sv.stats, Stats{Kind: k})
	return &sv.stats[len(sv.stats)-1]
}

func sumRows(pl parsedlog.Log, idxs []int) int64 {
	var total int64
	for _, i := range idxs {
		if pl[i].Rows < 0 {
			return -1
		}
		total += pl[i].Rows
	}
	return total
}

var printOpts = sqlast.PrintOptions{} // preserve original identifier case

// memberTree re-parses the statement of the instance member at log index
// idx.
func memberTree(pl parsedlog.Log, inst antipattern.Instance, idx int) (*sqlast.SelectStatement, error) {
	in := pl[idx].Info
	if in == nil {
		return nil, errInstance(inst, "member %d not parsed", idx)
	}
	stmt, err := parsedlog.Tree(in)
	if err != nil {
		return nil, errInstance(inst, "member %d: %v", idx, err)
	}
	return stmt, nil
}

func errInstance(inst antipattern.Instance, format string, args ...any) error {
	return fmt.Errorf("rewrite %s (%d queries): %s", inst.Kind, len(inst.Indices), fmt.Sprintf(format, args...))
}
