package antipattern

import (
	"strings"

	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/sqlast"
)

// This file holds optional antipattern rules beyond the paper's core set,
// built with the §5.4 extension recipe (formal shape → detection rule →
// optional solver). They are not registered by default; pass them via
// Config.ExtraRules (and the matching solver via Config.ExtraSolvers).

// Additional antipattern kinds.
const (
	// ImplicitColumns is Karwin's "Implicit Columns" antipattern:
	// SELECT * hides schema dependencies and ships unneeded columns. It is
	// solvable when the catalog knows the table: the star expands to the
	// explicit column list.
	ImplicitColumns Kind = "ImplicitColumns"
	// LeadingWildcard is Karwin's "Poor Man's Search Engine":
	// LIKE '%...' patterns that defeat every index and force full scans.
	// Detect-only (the fix is a different access structure, not a rewrite).
	LeadingWildcard Kind = "LeadingWildcard"
)

// ExtraRules returns the optional rules, ready for Config.ExtraRules.
func ExtraRules(cat *schema.Catalog) []Rule {
	return []Rule{
		&ImplicitColumnsRule{Catalog: cat},
		&LeadingWildcardRule{},
	}
}

// ImplicitColumnsRule flags SELECT * statements over a single table the
// catalog knows, so the solver can expand the star.
type ImplicitColumnsRule struct {
	Catalog *schema.Catalog
}

// Kind implements Rule.
func (r *ImplicitColumnsRule) Kind() Kind { return ImplicitColumns }

// Detect implements Rule. Only statements whose select-list skeleton starts
// with a bare star are re-parsed to inspect their select list and FROM
// clause.
func (r *ImplicitColumnsRule) Detect(pl parsedlog.Log, sess session.Session) []Instance {
	var out []Instance
	for _, idx := range sess.Indices {
		e := pl[idx]
		if e.Info == nil || !strings.HasPrefix(e.Info.SSC, "*") {
			continue
		}
		stmt, err := parsedlog.Tree(e.Info)
		if err != nil || len(stmt.From) != 1 || !isBareStar(stmt.Items) {
			continue
		}
		tr, ok := stmt.From[0].(*sqlast.TableRef)
		if !ok {
			continue
		}
		if r.Catalog != nil {
			if _, known := r.Catalog.Table(tr.Name); !known {
				continue
			}
		}
		skel := e.Info.SkeletonText()
		out = append(out, Instance{
			Kind:     ImplicitColumns,
			Indices:  []int{idx},
			User:     sess.User,
			Identity: skel,
			First:    skel,
			Second:   skel,
			Solvable: r.Catalog != nil,
		})
	}
	return out
}

func isBareStar(items []sqlast.SelectItem) bool {
	if len(items) != 1 {
		return false
	}
	c, ok := items[0].Expr.(*sqlast.ColumnRef)
	return ok && c.Star && c.Qualifier == ""
}

// LeadingWildcardRule flags LIKE predicates whose pattern starts with a
// wildcard — unindexable substring search.
type LeadingWildcardRule struct{}

// Kind implements Rule.
func (r *LeadingWildcardRule) Kind() Kind { return LeadingWildcard }

// Detect implements Rule. Only statements whose WHERE skeleton holds a LIKE
// are re-parsed to inspect the pattern literals.
func (r *LeadingWildcardRule) Detect(pl parsedlog.Log, sess session.Session) []Instance {
	var out []Instance
	for _, idx := range sess.Indices {
		e := pl[idx]
		if e.Info == nil || !strings.Contains(e.Info.SWC, " LIKE ") {
			continue
		}
		stmt, err := parsedlog.Tree(e.Info)
		if err != nil {
			continue
		}
		found := false
		sqlast.Walk(stmt.Where, func(n sqlast.Node) bool {
			if found {
				return false
			}
			like, ok := n.(*sqlast.LikeExpr)
			if !ok {
				return true
			}
			if lit, ok := like.Pattern.(*sqlast.Literal); ok && lit.Kind == "str" {
				if strings.HasPrefix(lit.Val, "%") || strings.HasPrefix(lit.Val, "_") {
					found = true
				}
			}
			return true
		})
		if !found {
			continue
		}
		skel := e.Info.SkeletonText()
		out = append(out, Instance{
			Kind:     LeadingWildcard,
			Indices:  []int{idx},
			User:     sess.User,
			Identity: skel,
			First:    skel,
			Second:   skel,
			Solvable: false,
		})
	}
	return out
}
