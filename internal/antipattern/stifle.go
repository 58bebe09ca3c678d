package antipattern

import (
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
)

// StifleRule detects the three Stifle classes of Definitions 11–14.
//
// A query qualifies for a Stifle when it has exactly one predicate (CP = 1),
// the predicate's comparison is equality (θ = 'equality'), the predicate
// filters by constant values, and — unless disabled — the filter column is a
// key attribute of one of the referenced tables.
//
// A Stifle instance is then a maximal run of ≥ MinRun consecutive qualifying
// queries of one session where every adjacent pair stands in the same clause
// relation:
//
//	DW-Stifle: equal SELECT and FROM clauses, equal WHERE skeleton,
//	           different concrete WHERE (Definition 12);
//	DS-Stifle: different SELECT skeletons, equal FROM, equal concrete
//	           WHERE (Definition 13);
//	DF-Stifle: different FROM clauses, equal concrete WHERE
//	           (Definition 14).
type StifleRule struct {
	Catalog *schema.Catalog
	Opt     Options
}

// Kind implements Rule.
func (r *StifleRule) Kind() Kind { return DWStifle } // representative; emits all three classes

func (r *StifleRule) qualifies(in *skeleton.Info) (skeleton.Predicate, bool) {
	if in == nil || in.CP() != 1 {
		return skeleton.Predicate{}, false
	}
	p := in.Predicates[0]
	if !p.IsEquality() || !p.IsValueFilter() || p.NullCompare {
		return skeleton.Predicate{}, false
	}
	if r.Opt.RequireKeyColumn && r.Catalog != nil {
		if !r.Catalog.IsKeyInAny(p.Column, in.TableNames) {
			return skeleton.Predicate{}, false
		}
	}
	return p, true
}

// relation classifies the clause relation between two qualifying queries; ""
// means none of the Stifle classes applies. Concrete clauses are compared
// by their hashes.
func relation(a, b *skeleton.Info) Kind {
	switch {
	case a.SCHash == b.SCHash && a.FCHash == b.FCHash && a.SWC == b.SWC && a.WCHash != b.WCHash:
		return DWStifle
	case a.SSC != b.SSC && a.FCHash == b.FCHash && a.WCHash == b.WCHash:
		return DSStifle
	case a.FCHash != b.FCHash && a.WCHash == b.WCHash && a.HasWhere():
		return DFStifle
	}
	return ""
}

// Detect implements Rule. Runs are found greedily from the left so they
// never overlap, and a query belongs to at most one instance.
func (r *StifleRule) Detect(pl parsedlog.Log, sess session.Session) []Instance {
	opt := r.Opt.withDefaults()
	idxs := sess.Indices
	var out []Instance
	i := 0
	for i < len(idxs) {
		e := pl[idxs[i]]
		if e.Class != sqlast.ClassSelect {
			i++
			continue
		}
		if _, ok := r.qualifies(e.Info); !ok {
			i++
			continue
		}
		// Try to grow a run with a consistent relation class.
		var runKind Kind
		j := i
		for j+1 < len(idxs) {
			next := pl[idxs[j+1]]
			if next.Class != sqlast.ClassSelect {
				break
			}
			if _, ok := r.qualifies(next.Info); !ok {
				break
			}
			rel := relation(pl[idxs[j]].Info, next.Info)
			if rel == "" {
				break
			}
			if runKind == "" {
				runKind = rel
			} else if rel != runKind {
				break
			}
			j++
		}
		runLen := j - i + 1
		if runKind != "" && runLen >= opt.MinRun {
			members := make([]int, 0, runLen)
			for k := i; k <= j; k++ {
				members = append(members, idxs[k])
			}
			out = append(out, r.makeInstance(pl, runKind, members, sess.User))
			i = j + 1
			continue
		}
		i++
	}
	return out
}

func (r *StifleRule) makeInstance(pl parsedlog.Log, kind Kind, members []int, user string) Instance {
	first := pl[members[0]].Info
	second := pl[members[1]].Info
	firstSkel := first.SkeletonText()
	secondSkel := second.SkeletonText()
	identity := firstSkel
	if kind != DWStifle {
		identity = firstSkel + " => " + secondSkel
	} else {
		secondSkel = firstSkel
	}
	return Instance{
		Kind:     kind,
		Indices:  members,
		User:     user,
		Identity: identity,
		First:    firstSkel,
		Second:   secondSkel,
		Solvable: true,
	}
}
