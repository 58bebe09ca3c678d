package sqlast

import (
	"strings"

	"sqlclean/internal/sqltoken"
)

// PrintOptions control how an AST is rendered back to SQL text.
type PrintOptions struct {
	// MaskLiterals replaces every Literal with a placeholder: <num> for
	// numbers, <str> for strings. NULL is preserved (it is a semantic
	// marker, not a parameter). This produces the skeleton query of the
	// paper's Definition 2.
	MaskLiterals bool
	// NormalizeIdents lower-cases identifiers (SQL identifiers are
	// case-insensitive) so that textually different but equivalent queries
	// print identically. Used for fingerprinting.
	NormalizeIdents bool
	// Spans, when non-nil and MaskLiterals is off, collects where each
	// number and string Literal lands in the output, in print order.
	// Offsets count from the start of the builder, so texts rendered one
	// after another into one builder get offsets into the final string.
	Spans *[]LiteralSpan
}

// LiteralSpan is the byte range [Start, End) a printed Literal occupies.
type LiteralSpan struct {
	Lit        *Literal
	Start, End int
}

// Canonical prints a statement in fully normalized form (masked literals,
// normalized identifiers) — the skeleton-query text used as a template
// fingerprint component.
func Canonical(s *SelectStatement) string {
	return Print(s, PrintOptions{MaskLiterals: true, NormalizeIdents: true})
}

// Print renders a SELECT statement as SQL text under the given options.
// The output is deterministic: same AST and options, same string.
func Print(s *SelectStatement, o PrintOptions) string {
	var b strings.Builder
	p := printer{b: &b, o: o}
	p.selectStmt(s)
	return b.String()
}

// PrintStatement renders any modeled statement (SELECT or typed DML).
// OtherStatements render as their raw text.
func PrintStatement(st Statement, o PrintOptions) string {
	var b strings.Builder
	p := printer{b: &b, o: o}
	switch s := st.(type) {
	case *SelectStatement:
		p.selectStmt(s)
	case *InsertStatement:
		p.ws("INSERT INTO ")
		p.tableSource(s.Table)
		if len(s.Columns) > 0 {
			p.ws(" (")
			for i, c := range s.Columns {
				if i > 0 {
					p.ws(", ")
				}
				p.ident(c)
			}
			p.ws(")")
		}
		p.ws(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				p.ws(", ")
			}
			p.ws("(")
			for j, x := range row {
				if j > 0 {
					p.ws(", ")
				}
				p.expr(x)
			}
			p.ws(")")
		}
	case *UpdateStatement:
		p.ws("UPDATE ")
		p.tableSource(s.Table)
		p.ws(" SET ")
		for i, set := range s.Set {
			if i > 0 {
				p.ws(", ")
			}
			p.ident(set.Column)
			p.ws(" = ")
			p.expr(set.Value)
		}
		if s.Where != nil {
			p.ws(" WHERE ")
			p.expr(s.Where)
		}
	case *DeleteStatement:
		p.ws("DELETE FROM ")
		p.tableSource(s.Table)
		if s.Where != nil {
			p.ws(" WHERE ")
			p.expr(s.Where)
		}
	case *OtherStatement:
		p.ws(s.Raw)
	}
	return b.String()
}

// PrintExpr renders a single expression under the given options.
func PrintExpr(e Expr, o PrintOptions) string {
	var b strings.Builder
	p := printer{b: &b, o: o}
	p.expr(e)
	return b.String()
}

// AppendExpr renders e into b under the given options, saving the
// intermediate string PrintExpr would allocate.
func AppendExpr(b *strings.Builder, e Expr, o PrintOptions) {
	p := printer{b: b, o: o}
	p.expr(e)
}

// AppendTableSource renders a FROM entry into b under the given options.
func AppendTableSource(b *strings.Builder, ts TableSource, o PrintOptions) {
	p := printer{b: b, o: o}
	p.tableSource(ts)
}

// AppendSelect renders a whole SELECT statement into b under the given
// options, saving the intermediate string Print would allocate.
func AppendSelect(b *strings.Builder, s *SelectStatement, o PrintOptions) {
	p := printer{b: b, o: o}
	p.selectStmt(s)
}

type printer struct {
	b *strings.Builder
	o PrintOptions
}

func (p *printer) ws(s string) { p.b.WriteString(s) }
func (p *printer) ident(s string) {
	// needsQuoting is case-insensitive, so it can run before normalization;
	// that lets the unquoted path lower ASCII bytes straight into the
	// builder instead of allocating a strings.ToLower copy per identifier.
	if needsQuoting(s) {
		if p.o.NormalizeIdents {
			s = strings.ToLower(s)
		}
		// T-SQL bracket quoting; ']' inside a name cannot round-trip
		// through the lexer, so it is dropped rather than emitting an
		// unparseable identifier.
		p.ws("[")
		p.ws(strings.ReplaceAll(s, "]", ""))
		p.ws("]")
		return
	}
	if !p.o.NormalizeIdents {
		p.ws(s)
		return
	}
	i := 0
	for i < len(s) {
		c := s[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			break
		}
		i++
	}
	if i == len(s) { // already lower-case ASCII — write the original slice
		p.ws(s)
		return
	}
	p.ws(s[:i])
	rest := s[i:]
	var buf [64]byte
	for len(rest) > 0 {
		n := len(rest)
		if n > len(buf) {
			n = len(buf)
		}
		for j := 0; j < n; j++ {
			c := rest[j]
			if c >= 0x80 {
				// Non-ASCII identifier: defer to Unicode-correct lowering.
				p.b.Write(buf[:j])
				p.ws(strings.ToLower(rest[j:]))
				return
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[j] = c
		}
		p.b.Write(buf[:n])
		rest = rest[n:]
	}
}

// startsWithIdentEq reports whether printing the expression would begin
// with a bare identifier followed by '=' — the shape the parser reads as a
// T-SQL alias assignment in a select list.
func startsWithIdentEq(x Expr) bool {
	be, ok := x.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	c, ok := be.Left.(*ColumnRef)
	return ok && !c.Star && c.Qualifier == ""
}

// needsUnaryParens reports whether a unary operand must be parenthesized to
// avoid token gluing ("--", "+-", binary-expression precedence).
func needsUnaryParens(op string, x Expr) bool {
	if op == "NOT" {
		return false
	}
	switch v := x.(type) {
	case *UnaryExpr:
		return true
	case *Literal:
		return v.Kind == "num" && strings.HasPrefix(v.Val, "-")
	case *BinaryExpr:
		return true
	}
	return false
}

// needsQuoting reports whether an identifier must be bracket-quoted to
// reparse: empty names, names with characters outside the identifier
// alphabet, names starting with a digit, and reserved words.
func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	if _, kw := sqltoken.KeywordCanon(s); kw {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '#', c >= 0x80:
		case c >= '0' && c <= '9', c == '$':
			// Digits and '$' are identifier characters only after the
			// first byte (mirrors the lexer's isIdentStart/isIdentPart).
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return false
}

func (p *printer) selectStmt(s *SelectStatement) {
	p.ws("SELECT ")
	if s.Distinct {
		p.ws("DISTINCT ")
	}
	if s.Top != nil {
		p.ws("TOP ")
		p.literal(s.Top)
		if s.TopPercent {
			p.ws(" PERCENT")
		}
		p.ws(" ")
	}
	for i, it := range s.Items {
		if i > 0 {
			p.ws(", ")
		}
		// An expression starting with a bare identifier and '=' would
		// reparse as T-SQL's "alias = expr" form; print aliased items that
		// way so the round trip is exact, and parenthesize unaliased ones.
		if startsWithIdentEq(it.Expr) {
			if it.Alias != "" {
				p.ident(it.Alias)
				p.ws(" = ")
				p.expr(it.Expr)
				continue
			}
			p.ws("(")
			p.expr(it.Expr)
			p.ws(")")
			continue
		}
		p.expr(it.Expr)
		if it.Alias != "" {
			p.ws(" AS ")
			p.ident(it.Alias)
		}
	}
	if len(s.From) > 0 {
		p.ws(" FROM ")
		for i, ts := range s.From {
			if i > 0 {
				p.ws(", ")
			}
			p.tableSource(ts)
		}
	}
	if s.Where != nil {
		p.ws(" WHERE ")
		p.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		p.ws(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(e)
		}
	}
	if s.Having != nil {
		p.ws(" HAVING ")
		p.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		p.ws(" ORDER BY ")
		for i, oi := range s.OrderBy {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(oi.Expr)
			if oi.Desc {
				p.ws(" DESC")
			}
		}
	}
	if s.SetOp != "" && s.SetRight != nil {
		p.ws(" ")
		p.ws(s.SetOp)
		p.ws(" ")
		p.selectStmt(s.SetRight)
	}
}

func (p *printer) tableSource(ts TableSource) {
	switch t := ts.(type) {
	case *TableRef:
		if t.Schema != "" {
			p.ident(t.Schema)
			p.ws(".")
		}
		p.ident(t.Name)
		if t.Alias != "" {
			p.ws(" AS ")
			p.ident(t.Alias)
		}
	case *FuncSource:
		p.expr(t.Call)
		if t.Alias != "" {
			p.ws(" AS ")
			p.ident(t.Alias)
		}
	case *DerivedTable:
		p.ws("(")
		p.selectStmt(t.Sub)
		p.ws(")")
		if t.Alias != "" {
			p.ws(" AS ")
			p.ident(t.Alias)
		}
	case *Join:
		p.tableSource(t.Left)
		p.ws(" ")
		p.ws(t.Kind.String())
		p.ws(" ")
		p.tableSource(t.Right)
		if t.Cond != nil {
			p.ws(" ON ")
			p.expr(t.Cond)
		}
	}
}

func (p *printer) literal(l *Literal) {
	switch l.Kind {
	case "null":
		p.ws("NULL")
	case "str":
		if p.o.MaskLiterals {
			p.ws("<str>")
			return
		}
		start := p.b.Len()
		p.ws("'")
		p.ws(strings.ReplaceAll(l.Val, "'", "''"))
		p.ws("'")
		p.span(l, start)
	default: // num
		if p.o.MaskLiterals {
			p.ws("<num>")
			return
		}
		start := p.b.Len()
		p.ws(l.Val)
		p.span(l, start)
	}
}

// span records that l was printed from start to the current end of output.
func (p *printer) span(l *Literal, start int) {
	if p.o.Spans != nil {
		*p.o.Spans = append(*p.o.Spans, LiteralSpan{Lit: l, Start: start, End: p.b.Len()})
	}
}

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case *Literal:
		p.literal(x)
	case *ColumnRef:
		if x.Qualifier != "" {
			p.ident(x.Qualifier)
			p.ws(".")
		}
		if x.Star {
			p.ws("*")
		} else {
			p.ident(x.Name)
		}
	case *Variable:
		p.ws(x.Name)
	case *BinaryExpr:
		p.expr(x.Left)
		p.ws(" ")
		p.ws(x.Op)
		p.ws(" ")
		p.expr(x.Right)
	case *UnaryExpr:
		p.ws(x.Op)
		if x.Op == "NOT" {
			p.ws(" ")
		}
		// Parenthesize nested sign operands: "- -1" would otherwise print
		// as "--1", which lexes as a line comment.
		if needsUnaryParens(x.Op, x.X) {
			p.ws("(")
			p.expr(x.X)
			p.ws(")")
			return
		}
		p.expr(x.X)
	case *ParenExpr:
		p.ws("(")
		p.expr(x.X)
		p.ws(")")
	case *FuncCall:
		if x.Schema != "" {
			p.ident(x.Schema)
			p.ws(".")
		}
		// Function names that are keywords (count, left, cast-like
		// builtins) parse fine before '(' and must not be bracketed.
		name := x.Name
		if p.o.NormalizeIdents {
			name = strings.ToLower(name)
		}
		p.ws(name)
		p.ws("(")
		if x.Distinct {
			p.ws("DISTINCT ")
		}
		if x.Star {
			p.ws("*")
		}
		for i, a := range x.Args {
			if i > 0 {
				p.ws(", ")
			}
			p.expr(a)
		}
		p.ws(")")
	case *InExpr:
		p.expr(x.X)
		if x.Not {
			p.ws(" NOT")
		}
		p.ws(" IN (")
		if x.Sub != nil {
			p.selectStmt(x.Sub)
		} else {
			for i, it := range x.List {
				if i > 0 {
					p.ws(", ")
				}
				p.expr(it)
			}
		}
		p.ws(")")
	case *BetweenExpr:
		p.expr(x.X)
		if x.Not {
			p.ws(" NOT")
		}
		p.ws(" BETWEEN ")
		p.expr(x.Lo)
		p.ws(" AND ")
		p.expr(x.Hi)
	case *IsNullExpr:
		p.expr(x.X)
		p.ws(" IS ")
		if x.Not {
			p.ws("NOT ")
		}
		p.ws("NULL")
	case *LikeExpr:
		p.expr(x.X)
		if x.Not {
			p.ws(" NOT")
		}
		p.ws(" LIKE ")
		p.expr(x.Pattern)
	case *ExistsExpr:
		p.ws("EXISTS (")
		p.selectStmt(x.Sub)
		p.ws(")")
	case *SubqueryExpr:
		p.ws("(")
		p.selectStmt(x.Sub)
		p.ws(")")
	case *CastExpr:
		p.ws("CAST(")
		p.expr(x.X)
		p.ws(" AS ")
		p.ident(x.Type)
		if len(x.TypeArgs) > 0 {
			p.ws("(")
			p.ws(strings.Join(x.TypeArgs, ", "))
			p.ws(")")
		}
		p.ws(")")
	case *CaseExpr:
		p.ws("CASE")
		if x.Operand != nil {
			p.ws(" ")
			p.expr(x.Operand)
		}
		for _, w := range x.Whens {
			p.ws(" WHEN ")
			p.expr(w.Cond)
			p.ws(" THEN ")
			p.expr(w.Then)
		}
		if x.Else != nil {
			p.ws(" ELSE ")
			p.expr(x.Else)
		}
		p.ws(" END")
	}
}
