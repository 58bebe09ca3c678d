package sqlparser

import (
	"math/rand"
	"testing"

	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
)

// Random AST generation for property testing: every generated statement must
// print to text the parser accepts, and printing must be a fixpoint.

type astGen struct {
	rng *rand.Rand
}

func (g *astGen) pick(n int) int { return g.rng.Intn(n) }

func (g *astGen) ident() string {
	names := []string{"objid", "ra", "dec", "name", "surname", "htmid", "r", "flags", "empId", "department"}
	return names[g.pick(len(names))]
}

func (g *astGen) table() string {
	names := []string{"photoprimary", "Employees", "specobj", "dbobjects", "Orders"}
	return names[g.pick(len(names))]
}

func (g *astGen) literal() *sqlast.Literal {
	switch g.pick(4) {
	case 0:
		return &sqlast.Literal{Kind: "num", Val: []string{"0", "42", "3.5", "587731186740822117", "-7"}[g.pick(5)]}
	case 1:
		return &sqlast.Literal{Kind: "str", Val: []string{"sales", "Galaxy", "x%", "it's"}[g.pick(4)]}
	case 2:
		return &sqlast.Literal{Kind: "null"}
	default:
		return &sqlast.Literal{Kind: "num", Val: "1"}
	}
}

func (g *astGen) scalar(depth int) sqlast.Expr {
	if depth <= 0 {
		if g.pick(2) == 0 {
			return g.literal()
		}
		return &sqlast.ColumnRef{Name: g.ident()}
	}
	switch g.pick(6) {
	case 0:
		return g.literal()
	case 1:
		q := ""
		if g.pick(2) == 0 {
			q = "t"
		}
		return &sqlast.ColumnRef{Qualifier: q, Name: g.ident()}
	case 2:
		return &sqlast.Variable{Name: "@v"}
	case 3:
		return &sqlast.BinaryExpr{Op: []string{"+", "-", "*"}[g.pick(3)], Left: g.scalar(depth - 1), Right: g.scalar(depth - 1)}
	case 4:
		return &sqlast.FuncCall{Name: []string{"abs", "str", "floor"}[g.pick(3)], Args: []sqlast.Expr{g.scalar(depth - 1)}}
	default:
		return &sqlast.CastExpr{X: g.scalar(depth - 1), Type: []string{"int", "float", "varchar"}[g.pick(3)]}
	}
}

func (g *astGen) predicate(depth int) sqlast.Expr {
	if depth <= 0 {
		return &sqlast.BinaryExpr{Op: "=", Left: &sqlast.ColumnRef{Name: g.ident()}, Right: g.literal()}
	}
	switch g.pick(8) {
	case 0:
		return &sqlast.BinaryExpr{Op: []string{"=", "<>", "<", ">", "<=", ">="}[g.pick(6)], Left: g.scalar(1), Right: g.scalar(1)}
	case 1:
		return &sqlast.BinaryExpr{Op: "AND", Left: g.predicate(depth - 1), Right: g.predicate(depth - 1)}
	case 2:
		return &sqlast.BinaryExpr{Op: "OR", Left: g.predicate(depth - 1), Right: g.predicate(depth - 1)}
	case 3:
		return &sqlast.UnaryExpr{Op: "NOT", X: &sqlast.ParenExpr{X: g.predicate(depth - 1)}}
	case 4:
		in := &sqlast.InExpr{X: &sqlast.ColumnRef{Name: g.ident()}, Not: g.pick(3) == 0}
		for i := 0; i <= g.pick(3); i++ {
			in.List = append(in.List, g.literal())
		}
		return in
	case 5:
		return &sqlast.BetweenExpr{X: &sqlast.ColumnRef{Name: g.ident()}, Lo: g.scalar(0), Hi: g.scalar(0)}
	case 6:
		return &sqlast.IsNullExpr{X: &sqlast.ColumnRef{Name: g.ident()}, Not: g.pick(2) == 0}
	default:
		return &sqlast.LikeExpr{X: &sqlast.ColumnRef{Name: g.ident()}, Pattern: &sqlast.Literal{Kind: "str", Val: "x%"}}
	}
}

func (g *astGen) tableSource(depth int) sqlast.TableSource {
	if depth <= 0 {
		return &sqlast.TableRef{Name: g.table()}
	}
	switch g.pick(5) {
	case 0:
		alias := ""
		if g.pick(2) == 0 {
			alias = "t"
		}
		return &sqlast.TableRef{Name: g.table(), Alias: alias}
	case 1:
		return &sqlast.FuncSource{
			Call:  &sqlast.FuncCall{Schema: "dbo", Name: "fGetNearbyObjEq", Args: []sqlast.Expr{g.literal(), g.literal(), g.literal()}},
			Alias: "n",
		}
	case 2:
		return &sqlast.DerivedTable{Sub: g.selectStmt(depth - 1), Alias: "sub"}
	case 3:
		return &sqlast.Join{
			Kind: []sqlast.JoinKind{sqlast.InnerJoin, sqlast.LeftJoin, sqlast.RightJoin}[g.pick(3)],
			Left: &sqlast.TableRef{Name: g.table(), Alias: "a"}, Right: &sqlast.TableRef{Name: g.table(), Alias: "b"},
			Cond: &sqlast.BinaryExpr{Op: "=",
				Left:  &sqlast.ColumnRef{Qualifier: "a", Name: g.ident()},
				Right: &sqlast.ColumnRef{Qualifier: "b", Name: g.ident()}},
		}
	default:
		return &sqlast.Join{Kind: sqlast.CrossJoin,
			Left: &sqlast.TableRef{Name: g.table(), Alias: "a"}, Right: &sqlast.TableRef{Name: g.table(), Alias: "b"}}
	}
}

func (g *astGen) selectStmt(depth int) *sqlast.SelectStatement {
	s := &sqlast.SelectStatement{}
	if g.pick(4) == 0 {
		s.Distinct = true
	}
	if g.pick(4) == 0 {
		s.Top = &sqlast.Literal{Kind: "num", Val: "10"}
	}
	nItems := 1 + g.pick(3)
	for i := 0; i < nItems; i++ {
		it := sqlast.SelectItem{Expr: g.scalar(depth)}
		if g.pick(3) == 0 {
			it.Alias = "c" + string(rune('a'+i))
		}
		s.Items = append(s.Items, it)
	}
	if g.pick(6) == 0 {
		s.Items = []sqlast.SelectItem{{Expr: &sqlast.ColumnRef{Star: true}}}
	}
	nFrom := 1 + g.pick(2)
	for i := 0; i < nFrom; i++ {
		s.From = append(s.From, g.tableSource(depth))
	}
	if g.pick(2) == 0 {
		s.Where = g.predicate(depth)
	}
	if g.pick(4) == 0 {
		s.GroupBy = []sqlast.Expr{&sqlast.ColumnRef{Name: g.ident()}}
		s.Items = []sqlast.SelectItem{
			{Expr: &sqlast.ColumnRef{Name: g.ident()}},
			{Expr: &sqlast.FuncCall{Name: "count", Star: true}},
		}
		if g.pick(2) == 0 {
			s.Having = &sqlast.BinaryExpr{Op: ">", Left: &sqlast.FuncCall{Name: "count", Star: true}, Right: &sqlast.Literal{Kind: "num", Val: "1"}}
		}
	}
	if g.pick(3) == 0 {
		s.OrderBy = []sqlast.OrderItem{{Expr: &sqlast.ColumnRef{Name: g.ident()}, Desc: g.pick(2) == 0}}
	}
	return s
}

// TestRandomASTPrintParseFixpoint generates random SELECT ASTs; printing
// them must produce parseable SQL, and print∘parse must be a fixpoint.
func TestRandomASTPrintParseFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := &astGen{rng: rng}
	for i := 0; i < 500; i++ {
		stmt := g.selectStmt(2)
		printed := sqlast.Print(stmt, sqlast.PrintOptions{})
		reparsed, err := ParseSelect(printed)
		if err != nil {
			t.Fatalf("case %d: printed SQL does not parse: %q: %v", i, printed, err)
		}
		again := sqlast.Print(reparsed, sqlast.PrintOptions{})
		if printed != again {
			t.Fatalf("case %d: print/parse not a fixpoint:\n1: %s\n2: %s", i, printed, again)
		}
		// The canonical skeleton must be stable too (template identity is
		// preserved by the round trip).
		if sqlast.Canonical(stmt) != sqlast.Canonical(reparsed) {
			t.Fatalf("case %d: canonical form changed:\n1: %s\n2: %s",
				i, sqlast.Canonical(stmt), sqlast.Canonical(reparsed))
		}
	}
}

// TestRandomASTSkeletonInvariants checks that skeleton analysis never
// panics and that fingerprints ignore literal values: rewriting every
// literal's value must keep the fingerprint.
func TestRandomASTSkeletonInvariants(t *testing.T) {
	// Two generators seeded alike, drawn in lockstep, build the same trees:
	// the second gives an independent copy to mutate.
	g := &astGen{rng: rand.New(rand.NewSource(99))}
	g2 := &astGen{rng: rand.New(rand.NewSource(99))}
	for i := 0; i < 300; i++ {
		stmt := g.selectStmt(2)
		in1 := skeleton.Analyze(stmt)

		mutated := g2.selectStmt(2)
		sqlast.Walk(mutated, func(n sqlast.Node) bool {
			if l, ok := n.(*sqlast.Literal); ok && l.Kind == "num" {
				l.Val = "123456"
			}
			if l, ok := n.(*sqlast.Literal); ok && l.Kind == "str" {
				l.Val = "other"
			}
			return true
		})
		in2 := skeleton.Analyze(mutated)
		if in1.Fingerprint != in2.Fingerprint {
			t.Fatalf("case %d: fingerprint depends on literal values:\n%s\n%s",
				i, in1.SkeletonText(), in2.SkeletonText())
		}
		if in1.CP() != in2.CP() {
			t.Fatalf("case %d: CP changed with literal values", i)
		}
	}
}
