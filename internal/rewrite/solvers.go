package rewrite

import (
	"strings"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/sqlast"
)

// ---------------------------------------------------------------------------
// DW-Stifle: same SELECT/FROM, different WHERE values → one IN query.
// ---------------------------------------------------------------------------

// DWSolver composes one query with all filter values collected into an IN
// list (paper Example 10). The filter column is prepended to the select list
// (when not already present) so individual result rows stay attributable.
type DWSolver struct{}

// Kind implements Solver.
func (*DWSolver) Kind() antipattern.Kind { return antipattern.DWStifle }

// Solve implements Solver.
func (*DWSolver) Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error) {
	first := pl[inst.Indices[0]].Info
	if first == nil || first.CP() != 1 {
		return "", errInstance(inst, "first member lacks the single equality predicate")
	}
	// Collect the distinct filter values in order of appearance.
	var values []sqlast.Expr
	seen := map[string]bool{}
	for _, idx := range inst.Indices {
		in := pl[idx].Info
		if in == nil || in.CP() != 1 || len(in.Predicates[0].Literals) != 1 {
			return "", errInstance(inst, "member %d lacks a single-literal predicate", idx)
		}
		lit := in.Predicates[0].Literals[0]
		key := lit.Kind + "\x00" + lit.Val
		if seen[key] {
			continue
		}
		seen[key] = true
		l := lit
		values = append(values, &l)
	}

	stmt, err := memberTree(pl, inst, inst.Indices[0])
	if err != nil {
		return "", err
	}
	col, ok := findEqPredicateColumn(stmt.Where)
	if !ok {
		return "", errInstance(inst, "cannot locate the equality predicate in WHERE")
	}
	c := *col
	stmt.Where = &sqlast.InExpr{X: &c, List: values}
	prependColumn(stmt, col)
	return sqlast.Print(stmt, printOpts), nil
}

// findEqPredicateColumn returns the column of the single equality predicate
// of a one-predicate WHERE clause.
func findEqPredicateColumn(where sqlast.Expr) (*sqlast.ColumnRef, bool) {
	switch x := where.(type) {
	case *sqlast.BinaryExpr:
		if x.Op != "=" {
			return nil, false
		}
		if c, ok := x.Left.(*sqlast.ColumnRef); ok && !c.Star {
			return c, true
		}
		if c, ok := x.Right.(*sqlast.ColumnRef); ok && !c.Star {
			return c, true
		}
	case *sqlast.ParenExpr:
		return findEqPredicateColumn(x.X)
	}
	return nil, false
}

// prependColumn adds col at the front of the select list unless an item
// already references it (or the list is a star).
func prependColumn(stmt *sqlast.SelectStatement, col *sqlast.ColumnRef) {
	want := strings.ToLower(col.Name)
	for _, it := range stmt.Items {
		if c, ok := it.Expr.(*sqlast.ColumnRef); ok {
			if c.Star || strings.ToLower(c.Name) == want {
				return
			}
		}
	}
	c := *col
	items := make([]sqlast.SelectItem, 0, len(stmt.Items)+1)
	items = append(items, sqlast.SelectItem{Expr: &c})
	items = append(items, stmt.Items...)
	stmt.Items = items
}

// ---------------------------------------------------------------------------
// DS-Stifle: same FROM/WHERE, different SELECT → union of select lists.
// ---------------------------------------------------------------------------

// DSSolver unions the select lists of the member queries into one query
// (paper Example 12).
type DSSolver struct{}

// Kind implements Solver.
func (*DSSolver) Kind() antipattern.Kind { return antipattern.DSStifle }

// Solve implements Solver.
func (*DSSolver) Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error) {
	var stmt *sqlast.SelectStatement
	seen := map[string]bool{}
	var items []sqlast.SelectItem
	for _, idx := range inst.Indices {
		m, err := memberTree(pl, inst, idx)
		if err != nil {
			return "", err
		}
		if stmt == nil {
			stmt = m
		}
		for _, it := range m.Items {
			key := sqlast.PrintExpr(it.Expr, sqlast.PrintOptions{NormalizeIdents: true})
			if it.Alias != "" {
				key += " as " + strings.ToLower(it.Alias)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			items = append(items, it)
		}
	}
	stmt.Items = items
	return sqlast.Print(stmt, printOpts), nil
}

// ---------------------------------------------------------------------------
// DF-Stifle: same WHERE, different FROM → join over the shared key.
// ---------------------------------------------------------------------------

// DFSolver joins the member queries' tables on a key column they share
// (paper Example 14). It requires every member to read from exactly one
// base table and the catalog to know a common key; otherwise the instance
// is reported unsolved and left in place.
type DFSolver struct {
	Catalog *schema.Catalog
}

// Kind implements Solver.
func (*DFSolver) Kind() antipattern.Kind { return antipattern.DFStifle }

// Solve implements Solver.
func (s *DFSolver) Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error) {
	type member struct {
		stmt  *sqlast.SelectStatement
		table *sqlast.TableRef
		alias string
	}
	var members []member
	seenTables := map[string]bool{}
	for _, idx := range inst.Indices {
		stmt, err := memberTree(pl, inst, idx)
		if err != nil {
			return "", err
		}
		if len(stmt.From) != 1 {
			return "", errInstance(inst, "member reads from %d FROM entries; need exactly one table", len(stmt.From))
		}
		tr, ok := stmt.From[0].(*sqlast.TableRef)
		if !ok {
			return "", errInstance(inst, "member FROM entry is not a base table")
		}
		key := strings.ToLower(tr.Name)
		if seenTables[key] {
			continue // repeated table: its columns are already covered
		}
		seenTables[key] = true
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		members = append(members, member{stmt: stmt, table: tr, alias: alias})
	}
	if len(members) < 2 {
		return "", errInstance(inst, "fewer than two distinct tables")
	}
	var tables []string
	for _, m := range members {
		tables = append(tables, m.table.Name)
	}
	if s.Catalog == nil {
		return "", errInstance(inst, "no catalog for shared-key lookup")
	}
	joinKey, ok := s.Catalog.SharedKey(tables)
	if !ok {
		return "", errInstance(inst, "tables %v share no key column", tables)
	}

	stmt := &sqlast.SelectStatement{}
	seenItems := map[string]bool{}
	for _, m := range members {
		for _, it := range m.stmt.Items {
			e := qualify(it.Expr, m.alias)
			key := sqlast.PrintExpr(e, sqlast.PrintOptions{NormalizeIdents: true})
			if seenItems[key] {
				continue
			}
			seenItems[key] = true
			stmt.Items = append(stmt.Items, sqlast.SelectItem{Expr: e, Alias: it.Alias})
		}
	}

	// Build the join chain m0 INNER JOIN m1 ON m0.k = m1.k INNER JOIN ...
	var src sqlast.TableSource = cloneTableRef(members[0].table)
	for _, m := range members[1:] {
		src = &sqlast.Join{
			Kind:  sqlast.InnerJoin,
			Left:  src,
			Right: cloneTableRef(m.table),
			Cond: &sqlast.BinaryExpr{
				Op:    "=",
				Left:  &sqlast.ColumnRef{Qualifier: members[0].alias, Name: joinKey},
				Right: &sqlast.ColumnRef{Qualifier: m.alias, Name: joinKey},
			},
		}
	}
	stmt.From = []sqlast.TableSource{src}
	stmt.Where = qualify(members[0].stmt.Where, members[0].alias)
	return sqlast.Print(stmt, printOpts), nil
}

func cloneTableRef(t *sqlast.TableRef) *sqlast.TableRef {
	c := *t
	return &c
}

// qualify sets the qualifier of every unqualified, non-star column reference
// in the expression tree to alias, in place, and returns the expression.
func qualify(e sqlast.Expr, alias string) sqlast.Expr {
	if e == nil {
		return nil
	}
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if c, ok := n.(*sqlast.ColumnRef); ok && !c.Star && c.Qualifier == "" {
			c.Qualifier = alias
		}
		// Do not descend into subqueries: their scopes differ.
		_, isSub := n.(*sqlast.SubqueryExpr)
		return !isSub
	})
	return e
}

// ---------------------------------------------------------------------------
// SNC: = NULL / <> NULL → IS [NOT] NULL.
// ---------------------------------------------------------------------------

// SNCSolver rewrites NULL (in)equality comparisons to IS [NOT] NULL
// (Definition 16's solving solution).
type SNCSolver struct{}

// Kind implements Solver.
func (*SNCSolver) Kind() antipattern.Kind { return antipattern.SNC }

// Solve implements Solver.
func (*SNCSolver) Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error) {
	stmt, err := memberTree(pl, inst, inst.Indices[0])
	if err != nil {
		return "", err
	}
	stmt.Where = fixNullCompare(stmt.Where)
	return sqlast.Print(stmt, printOpts), nil
}

func fixNullCompare(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlast.BinaryExpr:
		if x.Op == "=" || x.Op == "<>" {
			if isNullLit(x.Right) {
				return &sqlast.IsNullExpr{X: x.Left, Not: x.Op == "<>"}
			}
			if isNullLit(x.Left) {
				return &sqlast.IsNullExpr{X: x.Right, Not: x.Op == "<>"}
			}
		}
		x.Left = fixNullCompare(x.Left)
		x.Right = fixNullCompare(x.Right)
		return x
	case *sqlast.UnaryExpr:
		x.X = fixNullCompare(x.X)
		return x
	case *sqlast.ParenExpr:
		x.X = fixNullCompare(x.X)
		return x
	}
	return e
}

func isNullLit(e sqlast.Expr) bool {
	l, ok := e.(*sqlast.Literal)
	return ok && l.Kind == "null"
}
