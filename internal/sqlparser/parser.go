// Package sqlparser parses the T-SQL-ish SELECT dialect found in
// SkyServer-style query logs into sqlast trees. Non-SELECT statements are
// classified (DML, DDL, EXEC) without being deeply modeled, because the
// framework cleans a log of SELECT statements only (paper §2.2).
package sqlparser

import (
	"fmt"
	"strings"
	"sync"

	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqltoken"
)

// ParseError describes a syntax error with the byte offset where it occurred.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql parse error at byte %d: %s", e.Pos, e.Msg)
}

// tokenBufs recycles token slices across Parse calls. AST nodes keep only
// strings (aliasing src or interned keywords), never Tokens, so the buffer
// can be returned to the pool as soon as parsing finishes.
var tokenBufs = sync.Pool{
	New: func() any { b := make([]sqltoken.Token, 0, 128); return &b },
}

// Parse parses a single SQL statement. SELECT statements get a full AST;
// DML/DDL/EXEC statements are classified into OtherStatement. A trailing
// semicolon is allowed.
func Parse(src string) (sqlast.Statement, error) {
	bp := tokenBufs.Get().(*[]sqltoken.Token)
	toks, err := sqltoken.TokenizeAppend((*bp)[:0], src)
	var st sqlast.Statement
	if err == nil {
		st, err = ParseTokens(src, toks, nil)
	}
	*bp = toks[:0]
	tokenBufs.Put(bp)
	return st, err
}

// ParseTokens parses a statement from its tokens, as sqltoken.Tokenize
// returns them for src. A SELECT's tree depends only on the kinds and
// values of its tokens: src supplies the raw text of non-SELECT statements
// and the offset of an error at the end of the input, nothing else.
//
// When lits is non-nil, every Literal node built from a Number or String
// token is mapped to that token's index in toks. Those are the only places
// where a number or string value reaches the tree through a Literal; the
// other Number tokens, CAST type arguments and the CONVERT style, are kept
// as they are or dropped.
func ParseTokens(src string, toks []sqltoken.Token, lits map[*sqlast.Literal]int) (sqlast.Statement, error) {
	p := &parser{toks: toks, src: src, lits: lits}
	return p.parseStatement()
}

// ParseSelect parses src, requiring it to be a SELECT statement.
func ParseSelect(src string) (*sqlast.SelectStatement, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlast.SelectStatement)
	if !ok {
		return nil, fmt.Errorf("not a SELECT statement: %s", Classify(src))
	}
	return sel, nil
}

// Classify is a fast pre-pass that labels a statement without a full parse
// of non-SELECT statements. For SELECTs it still performs the full parse so
// that syntax errors are detected.
func Classify(src string) sqlast.StatementClass {
	st, err := Parse(src)
	if err != nil {
		return sqlast.ClassError
	}
	switch s := st.(type) {
	case *sqlast.SelectStatement:
		return sqlast.ClassSelect
	case *sqlast.InsertStatement, *sqlast.UpdateStatement, *sqlast.DeleteStatement:
		return sqlast.ClassDML
	case *sqlast.OtherStatement:
		return s.Class
	}
	return sqlast.ClassError
}

type parser struct {
	toks []sqltoken.Token
	pos  int
	src  string
	lits map[*sqlast.Literal]int // see ParseTokens; nil records nothing
}

// literal builds the Literal for the Number or String token just consumed
// and records where it came from.
func (p *parser) literal(kind, val string) *sqlast.Literal {
	lit := &sqlast.Literal{Kind: kind, Val: val}
	if p.lits != nil {
		p.lits[lit] = p.pos - 1
	}
	return lit
}

func (p *parser) cur() sqltoken.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return sqltoken.Token{Kind: sqltoken.EOF, Pos: len(p.src)}
}

func (p *parser) peek(off int) sqltoken.Token {
	if p.pos+off < len(p.toks) {
		return p.toks[p.pos+off]
	}
	return sqltoken.Token{Kind: sqltoken.EOF, Pos: len(p.src)}
}

func (p *parser) advance() sqltoken.Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// isKw reports whether the current token is the given keyword.
func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.Kind == sqltoken.Keyword && t.Val == kw
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %s", kw, p.describeCur())
	}
	return nil
}

// isOp reports whether the current token is the given operator.
func (p *parser) isOp(op string) bool {
	t := p.cur()
	return t.Kind == sqltoken.Op && t.Val == op
}

func (p *parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %s", op, p.describeCur())
	}
	return nil
}

func (p *parser) describeCur() string {
	t := p.cur()
	if t.Kind == sqltoken.EOF {
		return "end of statement"
	}
	return fmt.Sprintf("%s %q", strings.ToLower(t.Kind.String()), t.Val)
}

// ---------------------------------------------------------------------------
// Statement dispatch
// ---------------------------------------------------------------------------

func (p *parser) parseStatement() (sqlast.Statement, error) {
	t := p.cur()
	if t.Kind == sqltoken.EOF {
		return nil, p.errf("empty statement")
	}
	if t.Kind != sqltoken.Keyword {
		return nil, p.errf("statement must start with a keyword, found %s", p.describeCur())
	}
	switch t.Val {
	case "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		p.acceptOp(";")
		if p.cur().Kind != sqltoken.EOF {
			return nil, p.errf("unexpected trailing input: %s", p.describeCur())
		}
		return sel, nil
	case "INSERT", "UPDATE", "DELETE", "TRUNCATE":
		// Attempt the typed parse; dialect forms beyond the model degrade
		// to an OtherStatement so classification stays ClassDML.
		save := p.pos
		var st sqlast.Statement
		var ok bool
		switch t.Val {
		case "INSERT":
			st, ok = p.parseInsert()
		case "UPDATE":
			st, ok = p.parseUpdate()
		case "DELETE":
			st, ok = p.parseDelete()
		}
		if ok {
			return st, nil
		}
		p.pos = save
		return &sqlast.OtherStatement{Class: sqlast.ClassDML, Verb: t.Val, Raw: p.src}, nil
	case "CREATE", "DROP", "ALTER", "GRANT", "REVOKE":
		return &sqlast.OtherStatement{Class: sqlast.ClassDDL, Verb: t.Val, Raw: p.src}, nil
	case "EXEC", "EXECUTE", "DECLARE", "BEGIN", "SET":
		return &sqlast.OtherStatement{Class: sqlast.ClassExec, Verb: t.Val, Raw: p.src}, nil
	}
	return nil, p.errf("unsupported statement verb %s", t.Val)
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *parser) parseSelect() (*sqlast.SelectStatement, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &sqlast.SelectStatement{}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	if p.acceptKw("TOP") {
		paren := p.acceptOp("(")
		t := p.cur()
		if t.Kind != sqltoken.Number {
			return nil, p.errf("expected number after TOP, found %s", p.describeCur())
		}
		p.advance()
		s.Top = p.literal("num", t.Val)
		if paren {
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		if p.cur().Kind == sqltoken.Ident && sqltoken.Canon(p.cur().Val) == "PERCENT" {
			p.advance()
			s.TopPercent = true
		}
	}
	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	s.Items = items

	if p.acceptKw("INTO") {
		// SELECT ... INTO target: the target is a side effect out of scope
		// for log cleaning; consume the name so the rest still parses.
		if _, _, err := p.parseQualifiedName(); err != nil {
			return nil, err
		}
	}

	if p.acceptKw("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.isKw("GROUP") {
		p.advance()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.isKw("ORDER") {
		p.advance()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := sqlast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	// Set operations chain right-associatively.
	for _, op := range []string{"UNION", "EXCEPT", "INTERSECT"} {
		if p.isKw(op) {
			p.advance()
			setOp := op
			if op == "UNION" && p.acceptKw("ALL") {
				setOp = "UNION ALL"
			}
			right, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			s.SetOp = setOp
			s.SetRight = right
			break
		}
	}
	return s, nil
}

func (p *parser) parseSelectList() ([]sqlast.SelectItem, error) {
	var items []sqlast.SelectItem
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.acceptOp(",") {
			break
		}
	}
	return items, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	// alias = expr form (T-SQL): ident '=' expr, where ident is not followed
	// by '.' or '('. Disambiguate from a comparison by requiring the '='
	// directly after a bare identifier and treating it as assignment alias
	// only in the select list.
	if p.cur().Kind == sqltoken.Ident && p.peek(1).Kind == sqltoken.Op && p.peek(1).Val == "=" {
		// Could be "alias = expr". SELECT items rarely start with a bare
		// comparison, but to stay conservative only treat it as an alias
		// when the identifier is not qualified.
		alias := p.cur().Val
		p.pos += 2
		e, err := p.parseExpr()
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		return sqlast.SelectItem{Expr: e, Alias: alias}, nil
	}
	if p.isOp("*") && p.starIsWholeItem() {
		p.advance()
		it := sqlast.SelectItem{Expr: &sqlast.ColumnRef{Star: true}}
		// "alias = *" round-trips as "* AS alias"; only an explicit AS
		// introduces it (a bare identifier after * would be ambiguous).
		if p.acceptKw("AS") {
			t := p.cur()
			if t.Kind != sqltoken.Ident && t.Kind != sqltoken.QuotedIdent && t.Kind != sqltoken.Keyword {
				return sqlast.SelectItem{}, p.errf("expected alias after AS, found %s", p.describeCur())
			}
			p.advance()
			it.Alias = t.Val
		}
		return it, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	it := sqlast.SelectItem{Expr: e}
	if alias, ok := p.parseOptionalAlias(); ok {
		it.Alias = alias
	}
	return it, nil
}

// starIsWholeItem reports whether a '*' at the current position is a whole
// select item (SELECT *, SELECT * AS a, SELECT *, b FROM ...) rather than a
// multiplication operand (SELECT * % 2 — star as a value is nonsense SQL,
// but it must round-trip through expression parsing, not the item
// shortcut).
func (p *parser) starIsWholeItem() bool {
	nxt := p.peek(1)
	switch nxt.Kind {
	case sqltoken.EOF, sqltoken.Keyword:
		return true
	case sqltoken.Op:
		return nxt.Val == "," || nxt.Val == ";"
	}
	return false
}

// parseOptionalAlias consumes [AS] ident if present.
func (p *parser) parseOptionalAlias() (string, bool) {
	if p.acceptKw("AS") {
		t := p.cur()
		if t.Kind == sqltoken.Ident || t.Kind == sqltoken.QuotedIdent {
			p.advance()
			return t.Val, true
		}
		// AS must be followed by a name; tolerate keyword-like aliases.
		if t.Kind == sqltoken.Keyword {
			p.advance()
			return t.Val, true
		}
		return "", false
	}
	t := p.cur()
	if t.Kind == sqltoken.Ident || t.Kind == sqltoken.QuotedIdent {
		p.advance()
		return t.Val, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

func (p *parser) parseFromList() ([]sqlast.TableSource, error) {
	var out []sqlast.TableSource
	for {
		ts, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		out = append(out, ts)
		if !p.acceptOp(",") {
			break
		}
	}
	return out, nil
}

func (p *parser) parseJoinChain() (sqlast.TableSource, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind, ok := p.parseJoinKind()
		if !ok {
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &sqlast.Join{Kind: kind, Left: left, Right: right}
		if kind != sqlast.CrossJoin && kind != sqlast.CrossApply && kind != sqlast.OuterApply {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.Cond = cond
		}
		left = j
	}
}

func (p *parser) parseJoinKind() (sqlast.JoinKind, bool) {
	switch {
	case p.isKw("JOIN"):
		p.advance()
		return sqlast.InnerJoin, true
	case p.isKw("INNER"):
		p.advance()
		p.acceptKw("JOIN")
		return sqlast.InnerJoin, true
	case p.isKw("LEFT"):
		p.advance()
		p.acceptKw("OUTER")
		p.acceptKw("JOIN")
		return sqlast.LeftJoin, true
	case p.isKw("RIGHT"):
		p.advance()
		p.acceptKw("OUTER")
		p.acceptKw("JOIN")
		return sqlast.RightJoin, true
	case p.isKw("FULL"):
		p.advance()
		p.acceptKw("OUTER")
		p.acceptKw("JOIN")
		return sqlast.FullJoin, true
	case p.isKw("CROSS"):
		p.advance()
		if p.acceptKw("APPLY") {
			return sqlast.CrossApply, true
		}
		p.acceptKw("JOIN")
		return sqlast.CrossJoin, true
	case p.isKw("OUTER"):
		p.advance()
		p.acceptKw("APPLY")
		return sqlast.OuterApply, true
	}
	return 0, false
}

func (p *parser) parseTablePrimary() (sqlast.TableSource, error) {
	if p.acceptOp("(") {
		if p.isKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			dt := &sqlast.DerivedTable{Sub: sub}
			if alias, ok := p.parseOptionalAlias(); ok {
				dt.Alias = alias
			}
			return dt, nil
		}
		// Parenthesized join chain.
		ts, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ts, nil
	}
	schema, name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	if p.isOp("(") {
		// Table-valued function.
		call := &sqlast.FuncCall{Schema: schema, Name: name}
		if err := p.parseCallArgs(call); err != nil {
			return nil, err
		}
		fs := &sqlast.FuncSource{Call: call}
		if alias, ok := p.parseOptionalAlias(); ok {
			fs.Alias = alias
		}
		return fs, nil
	}
	tr := &sqlast.TableRef{Schema: schema, Name: name}
	if alias, ok := p.parseOptionalAlias(); ok {
		tr.Alias = alias
	}
	return tr, nil
}

// parseQualifiedName parses ident[.ident] and returns (schema, name). A
// single identifier yields ("", name).
func (p *parser) parseQualifiedName() (schema, name string, err error) {
	t := p.cur()
	if t.Kind != sqltoken.Ident && t.Kind != sqltoken.QuotedIdent {
		return "", "", p.errf("expected table name, found %s", p.describeCur())
	}
	p.advance()
	name = t.Val
	for p.isOp(".") {
		p.advance()
		t = p.cur()
		if t.Kind != sqltoken.Ident && t.Kind != sqltoken.QuotedIdent {
			return "", "", p.errf("expected name after '.', found %s", p.describeCur())
		}
		p.advance()
		schema, name = name, t.Val
	}
	return schema, name, nil
}

func (p *parser) parseCallArgs(call *sqlast.FuncCall) error {
	if err := p.expectOp("("); err != nil {
		return err
	}
	if p.acceptOp(")") {
		return nil
	}
	if p.acceptKw("DISTINCT") {
		call.Distinct = true
	}
	if p.isOp("*") && p.peek(1).Kind == sqltoken.Op && p.peek(1).Val == ")" {
		p.advance()
		call.Star = true
		return p.expectOp(")")
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return err
		}
		call.Args = append(call.Args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	return p.expectOp(")")
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (sqlast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]string{
	"=": "=", "<>": "<>", "!=": "<>", "<": "<", ">": ">", "<=": "<=",
	">=": ">=", "!<": ">=", "!>": "<=",
}

func (p *parser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == sqltoken.Op {
		if norm, ok := comparisonOps[t.Val]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &sqlast.BinaryExpr{Op: norm, Left: left, Right: right}, nil
		}
	}
	not := false
	if p.isKw("NOT") {
		nxt := p.peek(1)
		if nxt.Kind == sqltoken.Keyword && (nxt.Val == "IN" || nxt.Val == "BETWEEN" || nxt.Val == "LIKE") {
			p.advance()
			not = true
		}
	}
	switch {
	case p.acceptKw("IN"):
		return p.parseInTail(left, not)
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.BetweenExpr{X: left, Not: not, Lo: lo, Hi: hi}, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.LikeExpr{X: left, Not: not, Pattern: pat}, nil
	case p.acceptKw("IS"):
		isNot := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &sqlast.IsNullExpr{X: left, Not: isNot}, nil
	}
	if not {
		return nil, p.errf("dangling NOT")
	}
	return left, nil
}

func (p *parser) parseInTail(left sqlast.Expr, not bool) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &sqlast.InExpr{X: left, Not: not}
	if p.isKw("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Sub = sub
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqltoken.Op && (t.Val == "+" || t.Val == "-" || t.Val == "&" || t.Val == "|" || t.Val == "^") {
			p.advance()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &sqlast.BinaryExpr{Op: t.Val, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == sqltoken.Op && (t.Val == "*" || t.Val == "/" || t.Val == "%") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &sqlast.BinaryExpr{Op: t.Val, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	t := p.cur()
	if t.Kind == sqltoken.Op && (t.Val == "-" || t.Val == "+" || t.Val == "~") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold unary minus into a numeric literal so that "-5" skeletonizes
		// to a single <num> placeholder. Already-negative literals are left
		// as a unary expression ("--5" would lex as a comment). The fold
		// keeps the node, so it still maps to its token.
		if t.Val == "-" {
			if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == "num" && !strings.HasPrefix(lit.Val, "-") {
				lit.Val = "-" + lit.Val
				return lit, nil
			}
		}
		if t.Val == "+" {
			if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == "num" {
				return lit, nil
			}
		}
		return &sqlast.UnaryExpr{Op: t.Val, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case sqltoken.Number:
		p.advance()
		return p.literal("num", t.Val), nil
	case sqltoken.String:
		p.advance()
		return p.literal("str", t.Val), nil
	case sqltoken.Variable:
		p.advance()
		return &sqlast.Variable{Name: t.Val}, nil
	case sqltoken.Keyword:
		switch t.Val {
		case "NULL":
			p.advance()
			return &sqlast.Literal{Kind: "null"}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "CONVERT":
			return p.parseConvert()
		case "EXISTS":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.ExistsExpr{Sub: sub}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "LEFT", "RIGHT":
			// Aggregate and builtin names are lexed as keywords; when
			// followed by '(' they are function calls, otherwise they are
			// ordinary (non-reserved) column names, like T-SQL's "count".
			if p.peek(1).Kind == sqltoken.Op && p.peek(1).Val == "(" {
				p.advance()
				call := &sqlast.FuncCall{Name: strings.ToLower(t.Val)}
				if err := p.parseCallArgs(call); err != nil {
					return nil, err
				}
				return call, nil
			}
			p.advance()
			return &sqlast.ColumnRef{Name: strings.ToLower(t.Val)}, nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t.Val)
	case sqltoken.Op:
		if t.Val == "(" {
			p.advance()
			if p.isKw("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.SubqueryExpr{Sub: sub}, nil
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.ParenExpr{X: x}, nil
		}
		if t.Val == "*" {
			p.advance()
			return &sqlast.ColumnRef{Star: true}, nil
		}
		return nil, p.errf("unexpected %q in expression", t.Val)
	case sqltoken.Ident, sqltoken.QuotedIdent:
		return p.parseNameExpr()
	}
	return nil, p.errf("unexpected %s in expression", p.describeCur())
}

// parseNameExpr handles identifiers: column refs (possibly qualified,
// possibly .*) and function calls (possibly schema-qualified).
func (p *parser) parseNameExpr() (sqlast.Expr, error) {
	first := p.advance()
	// Qualified names have at most 3 useful parts (db.table.column); a
	// stack-backed array keeps this very hot path allocation-free (one slot
	// of slack so a 4-part name still reaches the error below).
	var partsBuf [4]string
	parts := append(partsBuf[:0], first.Val)
	for p.isOp(".") {
		if nxt := p.peek(1); nxt.Kind == sqltoken.Op && nxt.Val == "*" {
			p.pos += 2
			if len(parts) > 2 {
				return nil, p.errf("too many qualifiers before .*")
			}
			return &sqlast.ColumnRef{Qualifier: parts[len(parts)-1], Star: true}, nil
		}
		nxt := p.peek(1)
		if nxt.Kind != sqltoken.Ident && nxt.Kind != sqltoken.QuotedIdent && nxt.Kind != sqltoken.Keyword {
			return nil, p.errf("expected name after '.'")
		}
		p.pos += 2
		parts = append(parts, nxt.Val)
	}
	if p.isOp("(") {
		call := &sqlast.FuncCall{Name: parts[len(parts)-1]}
		if len(parts) >= 2 {
			call.Schema = parts[len(parts)-2]
		}
		if len(parts) > 2 {
			return nil, p.errf("function name has too many qualifiers")
		}
		if err := p.parseCallArgs(call); err != nil {
			return nil, err
		}
		return call, nil
	}
	switch len(parts) {
	case 1:
		return &sqlast.ColumnRef{Name: parts[0]}, nil
	case 2:
		return &sqlast.ColumnRef{Qualifier: parts[0], Name: parts[1]}, nil
	case 3:
		// db.table.column — keep the last two components.
		return &sqlast.ColumnRef{Qualifier: parts[1], Name: parts[2]}, nil
	}
	return nil, p.errf("name has too many qualifiers")
}

// parseTypeName parses a type name with optional length/precision
// arguments: int, float, varchar(30), decimal(10, 2).
func (p *parser) parseTypeName() (name string, args []string, err error) {
	t := p.cur()
	if t.Kind != sqltoken.Ident && t.Kind != sqltoken.QuotedIdent && t.Kind != sqltoken.Keyword {
		return "", nil, p.errf("expected type name, found %s", p.describeCur())
	}
	p.advance()
	name = t.Val
	if p.acceptOp("(") {
		for {
			a := p.cur()
			if a.Kind != sqltoken.Number && a.Kind != sqltoken.Ident {
				return "", nil, p.errf("expected type argument, found %s", p.describeCur())
			}
			p.advance()
			args = append(args, a.Val)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return "", nil, err
		}
	}
	return name, args, nil
}

// parseCast parses CAST(expr AS type).
func (p *parser) parseCast() (sqlast.Expr, error) {
	p.advance() // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	name, args, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CastExpr{X: x, Type: name, TypeArgs: args}, nil
}

// parseConvert parses T-SQL CONVERT(type, expr [, style]) into a CastExpr;
// the optional style argument is discarded (it only affects formatting).
func (p *parser) parseConvert() (sqlast.Expr, error) {
	p.advance() // CONVERT
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	name, args, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptOp(",") {
		if p.cur().Kind != sqltoken.Number {
			return nil, p.errf("expected CONVERT style number, found %s", p.describeCur())
		}
		p.advance()
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CastExpr{X: x, Type: name, TypeArgs: args}, nil
}

func (p *parser) parseCase() (sqlast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &sqlast.CaseExpr{}
	if !p.isKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE without WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
