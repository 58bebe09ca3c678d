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
	byKind := map[antipattern.Kind]Solver{}
	for _, s := range solvers {
		byKind[s.Kind()] = s
	}

	type replacement struct {
		stmt     string
		rows     int64
		kind     antipattern.Kind
		replaced int
	}
	replaceAt := map[int]replacement{} // first index -> replacement
	drop := make([]bool, len(pl))      // true: entry consumed by a solved instance
	dropped := 0
	statsByKind := map[antipattern.Kind]*Stats{}
	var kindOrder []antipattern.Kind

	stat := func(k antipattern.Kind) *Stats {
		s, ok := statsByKind[k]
		if !ok {
			s = &Stats{Kind: k}
			statsByKind[k] = s
			kindOrder = append(kindOrder, k)
		}
		return s
	}

	for _, inst := range instances {
		if !inst.Solvable {
			continue
		}
		solver, ok := byKind[inst.Kind]
		if !ok {
			continue
		}
		// Solving proceeds in log order (§5.5); skip instances that touch
		// an already-consumed entry.
		overlap := false
		for _, idx := range inst.Indices {
			if drop[idx] || replaceAt[idx].stmt != "" {
				overlap = true
				break
			}
		}
		s := stat(inst.Kind)
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
		rows := sumRows(pl, inst.Indices)
		replaceAt[inst.Indices[0]] = replacement{stmt: stmt, rows: rows, kind: inst.Kind, replaced: len(inst.Indices)}
		for _, idx := range inst.Indices[1:] {
			if !drop[idx] {
				drop[idx] = true
				dropped++
			}
		}
	}

	res := Result{Clean: make(logmodel.Log, 0, len(pl)-dropped)}
	for i, e := range pl {
		if r, ok := replaceAt[i]; ok {
			ne := e.Entry
			ne.Statement = r.stmt
			ne.Rows = r.rows
			res.Replacements = append(res.Replacements, Replacement{
				Kind:       r.kind,
				CleanIndex: len(res.Clean),
				Statement:  r.stmt,
				Replaced:   r.replaced,
			})
			res.Clean = append(res.Clean, ne)
			continue
		}
		if drop[i] {
			continue
		}
		res.Clean = append(res.Clean, e.Entry)
	}
	for _, k := range kindOrder {
		res.Stats = append(res.Stats, *statsByKind[k])
	}
	return res
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
