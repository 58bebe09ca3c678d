package sqlast

// Walk calls fn for every node in the tree rooted at n, in depth-first
// pre-order. If fn returns false for a node, its children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *SelectStatement:
		for _, it := range x.Items {
			Walk(it.Expr, fn)
		}
		for _, ts := range x.From {
			Walk(ts, fn)
		}
		if x.Where != nil {
			Walk(x.Where, fn)
		}
		for _, g := range x.GroupBy {
			Walk(g, fn)
		}
		if x.Having != nil {
			Walk(x.Having, fn)
		}
		for _, oi := range x.OrderBy {
			Walk(oi.Expr, fn)
		}
		if x.SetRight != nil {
			Walk(x.SetRight, fn)
		}
	case *TableRef, *Literal, *ColumnRef, *Variable, *OtherStatement:
		// leaves
	case *FuncSource:
		Walk(x.Call, fn)
	case *DerivedTable:
		Walk(x.Sub, fn)
	case *Join:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
		if x.Cond != nil {
			Walk(x.Cond, fn)
		}
	case *BinaryExpr:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *ParenExpr:
		Walk(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *InExpr:
		Walk(x.X, fn)
		for _, it := range x.List {
			Walk(it, fn)
		}
		if x.Sub != nil {
			Walk(x.Sub, fn)
		}
	case *BetweenExpr:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *IsNullExpr:
		Walk(x.X, fn)
	case *LikeExpr:
		Walk(x.X, fn)
		Walk(x.Pattern, fn)
	case *ExistsExpr:
		Walk(x.Sub, fn)
	case *SubqueryExpr:
		Walk(x.Sub, fn)
	case *CastExpr:
		Walk(x.X, fn)
	case *CaseExpr:
		if x.Operand != nil {
			Walk(x.Operand, fn)
		}
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	}
}

// Tables returns every base table referenced anywhere in the statement,
// including inside joins, derived tables and subqueries, in encounter order.
func Tables(s *SelectStatement) []*TableRef {
	var out []*TableRef
	Walk(s, func(n Node) bool {
		if t, ok := n.(*TableRef); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}

// Literals returns every literal in the statement in encounter order.
func Literals(s *SelectStatement) []*Literal {
	var out []*Literal
	Walk(s, func(n Node) bool {
		if l, ok := n.(*Literal); ok {
			out = append(out, l)
		}
		return true
	})
	return out
}
