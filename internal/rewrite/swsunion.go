package rewrite

import (
	"fmt"
	"strconv"

	"sqlclean/internal/parsedlog"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
)

// UnionTemplate implements §6.5's alternative to excluding sliding-window
// search traffic: "a union of the filtering conditions, i.e., replacing all
// these queries with one that yields the same result". For a template whose
// occurrences sweep numeric ranges (>=, >, <=, <, BETWEEN over the same
// columns), the union query keeps the first occurrence's shape and widens
// every range bound to the hull over all occurrences.
//
// It fails for templates whose filters are not numeric ranges (equality
// sweeps have no contiguous union).
func UnionTemplate(infos []*skeleton.Info) (string, error) {
	if len(infos) == 0 {
		return "", fmt.Errorf("rewrite: union of zero queries")
	}
	first := infos[0]

	// Hull per (column, role): role "lo" for lower bounds, "hi" for upper.
	type bound struct {
		val float64
		set bool
	}
	lo := map[string]bound{}
	hi := map[string]bound{}
	update := func(m map[string]bound, col string, v float64, better func(a, b float64) bool) {
		b := m[col]
		if !b.set || better(v, b.val) {
			m[col] = bound{val: v, set: true}
		}
	}
	less := func(a, b float64) bool { return a < b }
	more := func(a, b float64) bool { return a > b }

	for _, in := range infos {
		if in.Fingerprint != first.Fingerprint {
			return "", fmt.Errorf("rewrite: union across different templates")
		}
		for _, p := range in.Predicates {
			switch p.Op {
			case ">=", ">":
				v, err := oneNum(p)
				if err != nil {
					return "", err
				}
				update(lo, p.Column, v, less)
			case "<=", "<":
				v, err := oneNum(p)
				if err != nil {
					return "", err
				}
				update(hi, p.Column, v, more)
			case "BETWEEN":
				if len(p.Literals) != 2 {
					return "", fmt.Errorf("rewrite: BETWEEN without two literals")
				}
				a, errA := num(p.Literals[0])
				b, errB := num(p.Literals[1])
				if errA != nil || errB != nil {
					return "", fmt.Errorf("rewrite: non-numeric BETWEEN bounds")
				}
				update(lo, p.Column, a, less)
				update(hi, p.Column, b, more)
			default:
				return "", fmt.Errorf("rewrite: %s predicates have no contiguous union", p.Op)
			}
		}
	}

	// Rewrite the first statement's WHERE with the hull bounds.
	stmt, err := parsedlog.Tree(first)
	if err != nil {
		return "", fmt.Errorf("rewrite: re-parse: %w", err)
	}
	if stmt.Where != nil {
		var rewriteBounds func(e sqlast.Expr) error
		rewriteBounds = func(e sqlast.Expr) error {
			switch x := e.(type) {
			case *sqlast.BinaryExpr:
				if x.Op == "AND" || x.Op == "OR" {
					if err := rewriteBounds(x.Left); err != nil {
						return err
					}
					return rewriteBounds(x.Right)
				}
				col, okC := x.Left.(*sqlast.ColumnRef)
				lit, okL := x.Right.(*sqlast.Literal)
				if !okC || !okL {
					return nil
				}
				name := lowerName(col)
				switch x.Op {
				case ">=", ">":
					if b, ok := lo[name]; ok && b.set {
						lit.Val = formatNum(b.val)
					}
				case "<=", "<":
					if b, ok := hi[name]; ok && b.set {
						lit.Val = formatNum(b.val)
					}
				}
			case *sqlast.BetweenExpr:
				col, okC := x.X.(*sqlast.ColumnRef)
				if !okC {
					return nil
				}
				name := lowerName(col)
				if b, ok := lo[name]; ok && b.set {
					if l, isLit := x.Lo.(*sqlast.Literal); isLit {
						l.Val = formatNum(b.val)
					}
				}
				if b, ok := hi[name]; ok && b.set {
					if l, isLit := x.Hi.(*sqlast.Literal); isLit {
						l.Val = formatNum(b.val)
					}
				}
			case *sqlast.ParenExpr:
				return rewriteBounds(x.X)
			}
			return nil
		}
		if err := rewriteBounds(stmt.Where); err != nil {
			return "", err
		}
	}
	return sqlast.Print(stmt, printOpts), nil
}

func oneNum(p skeleton.Predicate) (float64, error) {
	if len(p.Literals) != 1 {
		return 0, fmt.Errorf("rewrite: predicate on %s lacks a literal bound", p.Column)
	}
	return num(p.Literals[0])
}

func num(l sqlast.Literal) (float64, error) {
	if l.Kind != "num" {
		return 0, fmt.Errorf("rewrite: non-numeric bound %q", l.Val)
	}
	v, err := strconv.ParseFloat(l.Val, 64)
	if err != nil {
		return 0, fmt.Errorf("rewrite: bad numeric bound %q", l.Val)
	}
	return v, nil
}

func formatNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func lowerName(c *sqlast.ColumnRef) string {
	out := make([]byte, len(c.Name))
	for i := 0; i < len(c.Name); i++ {
		ch := c.Name[i]
		if ch >= 'A' && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		out[i] = ch
	}
	return string(out)
}
