package sqlast

import (
	"testing"
)

// buildSample constructs an AST equivalent to:
// SELECT TOP 5 e.name AS n, count(*) FROM emp AS e INNER JOIN dep AS d ON
// e.did = d.id WHERE e.age > 30 AND e.city = 'Rome' GROUP BY e.did HAVING
// count(*) > 2 ORDER BY n DESC
func buildSample() *SelectStatement {
	return &SelectStatement{
		Top: &Literal{Kind: "num", Val: "5"},
		Items: []SelectItem{
			{Expr: &ColumnRef{Qualifier: "e", Name: "name"}, Alias: "n"},
			{Expr: &FuncCall{Name: "count", Star: true}},
		},
		From: []TableSource{
			&Join{
				Kind:  InnerJoin,
				Left:  &TableRef{Name: "emp", Alias: "e"},
				Right: &TableRef{Name: "dep", Alias: "d"},
				Cond: &BinaryExpr{Op: "=",
					Left:  &ColumnRef{Qualifier: "e", Name: "did"},
					Right: &ColumnRef{Qualifier: "d", Name: "id"}},
			},
		},
		Where: &BinaryExpr{Op: "AND",
			Left: &BinaryExpr{Op: ">",
				Left:  &ColumnRef{Qualifier: "e", Name: "age"},
				Right: &Literal{Kind: "num", Val: "30"}},
			Right: &BinaryExpr{Op: "=",
				Left:  &ColumnRef{Qualifier: "e", Name: "city"},
				Right: &Literal{Kind: "str", Val: "Rome"}},
		},
		GroupBy: []Expr{&ColumnRef{Qualifier: "e", Name: "did"}},
		Having: &BinaryExpr{Op: ">",
			Left:  &FuncCall{Name: "count", Star: true},
			Right: &Literal{Kind: "num", Val: "2"}},
		OrderBy: []OrderItem{{Expr: &ColumnRef{Name: "n"}, Desc: true}},
	}
}

func TestPrintPlain(t *testing.T) {
	got := Print(buildSample(), PrintOptions{})
	want := "SELECT TOP 5 e.name AS n, count(*) FROM emp AS e INNER JOIN dep AS d ON e.did = d.id WHERE e.age > 30 AND e.city = 'Rome' GROUP BY e.did HAVING count(*) > 2 ORDER BY n DESC"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrintMasked(t *testing.T) {
	got := Print(buildSample(), PrintOptions{MaskLiterals: true})
	want := "SELECT TOP <num> e.name AS n, count(*) FROM emp AS e INNER JOIN dep AS d ON e.did = d.id WHERE e.age > <num> AND e.city = <str> GROUP BY e.did HAVING count(*) > <num> ORDER BY n DESC"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrintNormalizesIdentifiers(t *testing.T) {
	s := &SelectStatement{
		Items: []SelectItem{{Expr: &ColumnRef{Qualifier: "E", Name: "Name"}}},
		From:  []TableSource{&TableRef{Schema: "DBO", Name: "Employees", Alias: "E"}},
	}
	got := Print(s, PrintOptions{NormalizeIdents: true})
	want := "SELECT e.name FROM dbo.employees AS e"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestPrintStringEscaping(t *testing.T) {
	s := &SelectStatement{
		Items: []SelectItem{{Expr: &Literal{Kind: "str", Val: "it's"}}},
	}
	got := Print(s, PrintOptions{})
	if got != "SELECT 'it''s'" {
		t.Errorf("got %q", got)
	}
}

func TestPrintNullPreservedUnderMasking(t *testing.T) {
	s := &SelectStatement{
		Items: []SelectItem{{Expr: &ColumnRef{Star: true}}},
		From:  []TableSource{&TableRef{Name: "t"}},
		Where: &BinaryExpr{Op: "=", Left: &ColumnRef{Name: "a"}, Right: &Literal{Kind: "null"}},
	}
	got := Print(s, PrintOptions{MaskLiterals: true})
	if got != "SELECT * FROM t WHERE a = NULL" {
		t.Errorf("got %q", got)
	}
}

func TestPrintExprVariants(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&InExpr{X: &ColumnRef{Name: "a"}, List: []Expr{&Literal{Kind: "num", Val: "1"}, &Literal{Kind: "num", Val: "2"}}}, "a IN (1, 2)"},
		{&InExpr{X: &ColumnRef{Name: "a"}, Not: true, List: []Expr{&Literal{Kind: "str", Val: "x"}}}, "a NOT IN ('x')"},
		{&BetweenExpr{X: &ColumnRef{Name: "r"}, Lo: &Literal{Kind: "num", Val: "1"}, Hi: &Literal{Kind: "num", Val: "2"}}, "r BETWEEN 1 AND 2"},
		{&IsNullExpr{X: &ColumnRef{Name: "a"}}, "a IS NULL"},
		{&IsNullExpr{X: &ColumnRef{Name: "a"}, Not: true}, "a IS NOT NULL"},
		{&LikeExpr{X: &ColumnRef{Name: "s"}, Pattern: &Literal{Kind: "str", Val: "x%"}}, "s LIKE 'x%'"},
		{&UnaryExpr{Op: "NOT", X: &ColumnRef{Name: "b"}}, "NOT b"},
		{&ParenExpr{X: &ColumnRef{Name: "b"}}, "(b)"},
		{&Variable{Name: "@ra"}, "@ra"},
		{&ColumnRef{Qualifier: "p", Star: true}, "p.*"},
		{&CaseExpr{
			Whens: []CaseWhen{{Cond: &BinaryExpr{Op: ">", Left: &ColumnRef{Name: "x"}, Right: &Literal{Kind: "num", Val: "0"}}, Then: &Literal{Kind: "str", Val: "pos"}}},
			Else:  &Literal{Kind: "str", Val: "neg"},
		}, "CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END"},
		{&FuncCall{Schema: "dbo", Name: "fn", Args: []Expr{&Variable{Name: "@x"}}}, "dbo.fn(@x)"},
		{&FuncCall{Name: "count", Distinct: true, Args: []Expr{&ColumnRef{Name: "a"}}}, "count(DISTINCT a)"},
	}
	for _, c := range cases {
		if got := PrintExpr(c.e, PrintOptions{}); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestPrintSetOps(t *testing.T) {
	s := &SelectStatement{
		Items:    []SelectItem{{Expr: &ColumnRef{Name: "a"}}},
		From:     []TableSource{&TableRef{Name: "t1"}},
		SetOp:    "UNION ALL",
		SetRight: &SelectStatement{Items: []SelectItem{{Expr: &ColumnRef{Name: "a"}}}, From: []TableSource{&TableRef{Name: "t2"}}},
	}
	if got := Print(s, PrintOptions{}); got != "SELECT a FROM t1 UNION ALL SELECT a FROM t2" {
		t.Errorf("got %q", got)
	}
}

func TestPrintTableSourceVariants(t *testing.T) {
	from := func(ts TableSource) string {
		return Print(&SelectStatement{Items: []SelectItem{{Expr: &ColumnRef{Name: "x"}}}, From: []TableSource{ts}}, PrintOptions{})
	}
	dt := &DerivedTable{
		Sub:   &SelectStatement{Items: []SelectItem{{Expr: &ColumnRef{Name: "a"}}}, From: []TableSource{&TableRef{Name: "t"}}},
		Alias: "sub",
	}
	if got := from(dt); got != "SELECT x FROM (SELECT a FROM t) AS sub" {
		t.Errorf("got %q", got)
	}
	fs := &FuncSource{Call: &FuncCall{Schema: "dbo", Name: "f", Args: []Expr{&Literal{Kind: "num", Val: "1"}}}, Alias: "n"}
	if got := from(fs); got != "SELECT x FROM dbo.f(1) AS n" {
		t.Errorf("got %q", got)
	}
	cj := &Join{Kind: CrossJoin, Left: &TableRef{Name: "a"}, Right: &TableRef{Name: "b"}}
	if got := from(cj); got != "SELECT x FROM a CROSS JOIN b" {
		t.Errorf("got %q", got)
	}
}

func TestJoinKindStrings(t *testing.T) {
	cases := map[JoinKind]string{
		InnerJoin:  "INNER JOIN",
		LeftJoin:   "LEFT OUTER JOIN",
		RightJoin:  "RIGHT OUTER JOIN",
		FullJoin:   "FULL OUTER JOIN",
		CrossJoin:  "CROSS JOIN",
		CrossApply: "CROSS APPLY",
		OuterApply: "OUTER APPLY",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}

func TestStatementClassStrings(t *testing.T) {
	cases := map[StatementClass]string{
		ClassSelect: "select", ClassDML: "dml", ClassDDL: "ddl",
		ClassExec: "exec", ClassError: "error",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("got %q want %q", c.String(), want)
		}
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	s := buildSample()
	count := 0
	Walk(s, func(n Node) bool {
		count++
		return true
	})
	// Statement + 2 items (colref, funccall) + join + 2 tables + cond (3
	// nodes) + where (3 binary + 2 cols + 2 lits = wait, count exactly):
	if count < 15 {
		t.Errorf("expected a full traversal, visited only %d nodes", count)
	}
}

func TestWalkPruning(t *testing.T) {
	s := buildSample()
	sawColumns := 0
	Walk(s, func(n Node) bool {
		if _, ok := n.(*BinaryExpr); ok {
			return false // prune below binary expressions
		}
		if _, ok := n.(*ColumnRef); ok {
			sawColumns++
		}
		return true
	})
	// Columns inside WHERE/ON are below BinaryExprs and must be pruned;
	// e.name in the select list and e.did in GROUP BY remain, plus n in
	// ORDER BY.
	if sawColumns != 3 {
		t.Errorf("got %d columns, want 3", sawColumns)
	}
}

func TestTablesColumnsLiterals(t *testing.T) {
	s := buildSample()
	tabs := Tables(s)
	if len(tabs) != 2 || tabs[0].Name != "emp" || tabs[1].Name != "dep" {
		t.Errorf("tables: %v", tabs)
	}
	cols := Columns(s)
	if len(cols) == 0 {
		t.Error("no columns found")
	}
	lits := Literals(s)
	// 30, 'Rome' and 2; TOP's literal is a field of the statement, not a
	// walked child.
	if len(lits) != 3 {
		t.Errorf("literals: %d", len(lits))
	}
}

func TestCloneSelectIsDeep(t *testing.T) {
	s := buildSample()
	c := CloneSelect(s)
	if Print(s, PrintOptions{}) != Print(c, PrintOptions{}) {
		t.Fatal("clone prints differently")
	}
	// Mutate the clone; the original must not change.
	c.Items[0].Expr.(*ColumnRef).Name = "changed"
	c.Where.(*BinaryExpr).Left.(*BinaryExpr).Right.(*Literal).Val = "99"
	c.From[0].(*Join).Left.(*TableRef).Name = "other"
	if s.Items[0].Expr.(*ColumnRef).Name != "name" {
		t.Error("clone shares select items with original")
	}
	if s.Where.(*BinaryExpr).Left.(*BinaryExpr).Right.(*Literal).Val != "30" {
		t.Error("clone shares where literals with original")
	}
	if s.From[0].(*Join).Left.(*TableRef).Name != "emp" {
		t.Error("clone shares from entries with original")
	}
}

func TestCloneExprCoversAllVariants(t *testing.T) {
	exprs := []Expr{
		&Literal{Kind: "num", Val: "1"},
		&ColumnRef{Name: "a"},
		&Variable{Name: "@v"},
		&BinaryExpr{Op: "+", Left: &Literal{Kind: "num", Val: "1"}, Right: &Literal{Kind: "num", Val: "2"}},
		&UnaryExpr{Op: "-", X: &ColumnRef{Name: "a"}},
		&ParenExpr{X: &ColumnRef{Name: "a"}},
		&FuncCall{Name: "f", Args: []Expr{&ColumnRef{Name: "a"}}},
		&InExpr{X: &ColumnRef{Name: "a"}, List: []Expr{&Literal{Kind: "num", Val: "1"}}},
		&BetweenExpr{X: &ColumnRef{Name: "a"}, Lo: &Literal{Kind: "num", Val: "0"}, Hi: &Literal{Kind: "num", Val: "9"}},
		&IsNullExpr{X: &ColumnRef{Name: "a"}},
		&LikeExpr{X: &ColumnRef{Name: "a"}, Pattern: &Literal{Kind: "str", Val: "%"}},
		&ExistsExpr{Sub: buildSample()},
		&SubqueryExpr{Sub: buildSample()},
		&CaseExpr{Whens: []CaseWhen{{Cond: &ColumnRef{Name: "c"}, Then: &Literal{Kind: "num", Val: "1"}}}},
	}
	for _, e := range exprs {
		c := CloneExpr(e)
		if PrintExpr(e, PrintOptions{}) != PrintExpr(c, PrintOptions{}) {
			t.Errorf("clone of %T prints differently", e)
		}
	}
	if CloneExpr(nil) != nil {
		t.Error("CloneExpr(nil) must be nil")
	}
	if CloneSelect(nil) != nil {
		t.Error("CloneSelect(nil) must be nil")
	}
}

func TestCanonicalEqualsMaskedNormalizedPrint(t *testing.T) {
	s := buildSample()
	if Canonical(s) != Print(s, PrintOptions{MaskLiterals: true, NormalizeIdents: true}) {
		t.Error("Canonical must be the masked normalized print")
	}
}
