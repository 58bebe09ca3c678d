package rewrite

import (
	"sqlclean/internal/antipattern"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/sqlast"
)

// ImplicitColumnsSolver expands SELECT * into the catalog's column list for
// the antipattern.ImplicitColumns rule.
type ImplicitColumnsSolver struct {
	Catalog *schema.Catalog
}

// Kind implements Solver.
func (*ImplicitColumnsSolver) Kind() antipattern.Kind { return antipattern.ImplicitColumns }

// Solve implements Solver.
func (s *ImplicitColumnsSolver) Solve(pl parsedlog.Log, inst antipattern.Instance) (string, error) {
	stmt, err := memberTree(pl, inst, inst.Indices[0])
	if err != nil {
		return "", err
	}
	if len(stmt.From) != 1 {
		return "", errInstance(inst, "not a single-table select")
	}
	tr, ok := stmt.From[0].(*sqlast.TableRef)
	if !ok {
		return "", errInstance(inst, "FROM entry is not a base table")
	}
	table, ok := s.Catalog.Table(tr.Name)
	if !ok {
		return "", errInstance(inst, "table %s not in catalog", tr.Name)
	}
	stmt.Items = stmt.Items[:0]
	for _, c := range table.Columns {
		stmt.Items = append(stmt.Items, sqlast.SelectItem{Expr: &sqlast.ColumnRef{Name: c.Name}})
	}
	return sqlast.Print(stmt, printOpts), nil
}

// ExtraSolvers returns the solvers matching antipattern.ExtraRules.
func ExtraSolvers(cat *schema.Catalog) []Solver {
	return []Solver{&ImplicitColumnsSolver{Catalog: cat}}
}
