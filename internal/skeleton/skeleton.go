// Package skeleton implements skeleton queries and query templates
// (Definitions 2–6 of the paper): the canonical, literal-masked form of a
// SELECT statement, split into the three clause skeletons SFC, SWC and SSC,
// plus the predicate summary (count CP, operator θ, filter column) that the
// antipattern definitions (Defs 11 and 15) are stated over.
//
// A summary keeps no syntax tree. What all statements of one masked
// skeleton share — the clause skeletons, the full skeleton text, the select
// columns and the table names — lives in one Skeleton record; the
// per-statement Info adds the fingerprint, hashes of the concrete clauses
// and the predicates. A caller that needs the tree re-parses Info.Statement.
package skeleton

import (
	"hash/fnv"
	"strings"
	"sync"

	"sqlclean/internal/sqlast"
)

// Predicate summarizes one top-level conjunct of a WHERE clause.
type Predicate struct {
	// Qualifier and Column identify the filtered column (canonical
	// lower-case). Empty Column means the conjunct is not a simple
	// column-vs-value comparison.
	Qualifier string
	Column    string
	// Op is the comparison: "=", "<>", "<", ">", "<=", ">=", "IN",
	// "BETWEEN", "LIKE", "IS NULL", "IS NOT NULL", or "complex" for
	// anything else (OR trees, function comparisons, ...).
	Op string
	// Literals holds the literal values compared against, in order.
	Literals []sqlast.Literal
	// OtherColumn is set when the right-hand side is another column
	// (join-style predicate col = col).
	OtherColumn string
	// NullCompare is true for the SNC antipattern shape: an (in)equality
	// comparison against the NULL literal (x = NULL, x <> NULL).
	NullCompare bool
}

// IsEquality reports whether θ is '=' (Defs 11 and 15 require equality).
func (p Predicate) IsEquality() bool { return p.Op == "=" }

// IsValueFilter reports whether the predicate compares the column against
// constant values (literals or variables), as opposed to another column.
func (p Predicate) IsValueFilter() bool {
	return p.Column != "" && p.OtherColumn == "" && p.Op != "complex"
}

// Skeleton is one skeleton query (Definition 2) and what every statement
// with that skeleton shares. Records are immutable; a Skeletons table hands
// out one per distinct masked skeleton.
type Skeleton struct {
	// Clause skeleton texts (literals masked, identifiers normalized).
	SFC, SWC, SSC string
	// SelectCols are the canonical names of plain columns in the select
	// list ("*" for star). Columns inside function calls are included too,
	// because CTH detection asks whether an output attribute feeds a later
	// WHERE clause.
	SelectCols []string
	// TableNames are the canonical base-table names referenced anywhere in
	// the statement, deduplicated, in encounter order.
	TableNames []string

	text string // the full skeleton-query text
	fp   uint64 // fingerprint(SFC, SWC, SSC)
}

// SkeletonText returns the full skeleton-query text (all clauses).
func (s *Skeleton) SkeletonText() string { return s.text }

// Info is the summary of one SELECT statement: its template through the
// shared Skeleton record, hashes of its concrete clauses, and its predicate
// summary.
type Info struct {
	// Statement is the statement text; parse results from package
	// parsedlog carry the cached instance, Analyze leaves it empty.
	Statement string

	// Fingerprint identifies the template (SFC, SWC, SSC) — Definition 4/5.
	Fingerprint uint64
	// SCHash, FCHash and WCHash are HashClause of the concrete clause texts
	// (identifiers normalized, literals kept) — Definition 3. Their readers
	// only compare them for equality.
	//
	// WCHash is also the key under which the batch template miner counts
	// DistinctWhere. It is part of the streaming contract: the stream's
	// template table and its snapshots count WHERE clauses by exactly this
	// hash, HashClause of the rendered WHERE text ("" without one), or their
	// drain-time DisjointRatio would diverge from the batch pipeline's.
	SCHash, FCHash, WCHash uint64

	// Predicates are the top-level AND-connected conjuncts of WHERE.
	Predicates []Predicate

	*Skeleton
}

// CP returns the count of predicates (Definition 11's CP).
func (in *Info) CP() int { return len(in.Predicates) }

// HasWhere reports whether the statement has a WHERE clause.
func (in *Info) HasWhere() bool { return in.SWC != "" }

// HashClause is the 64-bit FNV-1a hash of a clause text, inlined because
// hash/fnv's interface-based writer escapes to the heap.
func HashClause(s string) uint64 { return fnvString(fnvOffset, s) }

// fnvOffset is FNV-1a's initial state; fnvString and fnvByte continue a
// hash, so a text can be hashed piece by piece.
const fnvOffset uint64 = 14695981039346656037

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * 1099511628211 }

// Skeletons is a table of Skeleton records, one per distinct masked
// skeleton: a log of millions of statements over a few templates keeps a
// few records. Safe for concurrent use; the zero value is ready.
type Skeletons struct {
	mu sync.Mutex
	m  map[skelKey]*Skeleton
}

type skelKey struct{ ssc, sfc, swc, text string }

// record returns the table's Skeleton for k, building it from sel on first
// sight. A nil table shares nothing: every call builds a fresh record.
func (t *Skeletons) record(k skelKey, sel *sqlast.SelectStatement) *Skeleton {
	if t == nil {
		return newSkeleton(k, sel)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sk, ok := t.m[k]
	if !ok {
		// k slices the caller's render buffer, which also holds the
		// concrete clause texts; the record keeps copies of the masked ones
		// only.
		k = skelKey{strings.Clone(k.ssc), strings.Clone(k.sfc), strings.Clone(k.swc), strings.Clone(k.text)}
		sk = newSkeleton(k, sel)
		if t.m == nil {
			t.m = map[skelKey]*Skeleton{}
		}
		t.m[k] = sk
	}
	return sk
}

func newSkeleton(k skelKey, sel *sqlast.SelectStatement) *Skeleton {
	return &Skeleton{
		SFC: k.sfc, SWC: k.swc, SSC: k.ssc,
		SelectCols: selectColumns(sel),
		TableNames: tableNames(sel),
		text:       k.text,
		fp:         fingerprint(k.sfc, k.swc, k.ssc),
	}
}

var (
	maskOpts     = sqlast.PrintOptions{MaskLiterals: true, NormalizeIdents: true}
	concreteOpts = sqlast.PrintOptions{MaskLiterals: false, NormalizeIdents: true}
)

// Analyze computes the Info summary for a parsed SELECT statement, with a
// Skeleton record of its own. Parsers that summarize many statements use
// Skeletons.Summarize, which shares records.
func Analyze(sel *sqlast.SelectStatement) *Info {
	in := &Info{}
	fillInfo(in, sel, nil, nil)
	return in
}

// Summarize fills in the summary of a parsed SELECT statement (all fields
// but Statement), sharing the Skeleton record with every earlier statement
// of the same masked skeleton.
func (t *Skeletons) Summarize(in *Info, sel *sqlast.SelectStatement) {
	fillInfo(in, sel, t, nil)
}

// fillInfo renders the four masked texts (SSC, SFC, SWC and the full
// skeleton) and the three concrete clauses into one pre-grown builder and
// slices them out of its final string: the alloc profile showed per-clause
// builders regrowing mid-print as the single largest allocation source on
// template-heavy logs. Only the hashes of the concrete clauses are kept, so
// the buffer is garbage once a shared record exists — unless lits is
// non-nil: then fillInfo also returns the statement's Shape, built from the
// concrete clauses and the literal origins in lits.
func fillInfo(in *Info, sel *sqlast.SelectStatement, t *Skeletons, lits map[*sqlast.Literal]int) *Shape {
	conc := concreteOpts
	var spans []sqlast.LiteralSpan
	var from []*sqlast.Literal
	var fromp *[]*sqlast.Literal
	if lits != nil {
		conc.Spans, fromp = &spans, &from
	}
	var b strings.Builder
	b.Grow(512)
	appendSelectList(&b, sel, maskOpts)
	o1 := b.Len()
	appendFromList(&b, sel, maskOpts)
	o2 := b.Len()
	if sel.Where != nil {
		sqlast.AppendExpr(&b, sel.Where, maskOpts)
	}
	o3 := b.Len()
	sqlast.AppendSelect(&b, sel, maskOpts)
	o4 := b.Len()
	appendSelectList(&b, sel, conc)
	o5 := b.Len()
	appendFromList(&b, sel, conc)
	o6 := b.Len()
	if sel.Where != nil {
		sqlast.AppendExpr(&b, sel.Where, conc)
	}
	s := b.String()
	in.Skeleton = t.record(skelKey{ssc: s[:o1], sfc: s[o1:o2], swc: s[o2:o3], text: s[o3:o4]}, sel)
	in.Fingerprint = in.Skeleton.fp
	in.SCHash, in.FCHash, in.WCHash = HashClause(s[o4:o5]), HashClause(s[o5:o6]), HashClause(s[o6:])
	in.Predicates = extractPredicates(sel.Where, fromp)
	if lits == nil {
		return nil
	}
	return newShape(in, s, [4]int{o4, o5, o6, len(s)}, spans, from, lits)
}

func fingerprint(sfc, swc, ssc string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sfc))
	h.Write([]byte{0})
	h.Write([]byte(swc))
	h.Write([]byte{0})
	h.Write([]byte(ssc))
	return h.Sum64()
}

func appendSelectList(b *strings.Builder, sel *sqlast.SelectStatement, o sqlast.PrintOptions) {
	for i, it := range sel.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		sqlast.AppendExpr(b, it.Expr, o)
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(strings.ToLower(it.Alias))
		}
	}
}

func appendFromList(b *strings.Builder, sel *sqlast.SelectStatement, o sqlast.PrintOptions) {
	for i, ts := range sel.From {
		if i > 0 {
			b.WriteString(", ")
		}
		sqlast.AppendTableSource(b, ts, o)
	}
}

// extractPredicates flattens a WHERE expression over AND and summarizes each
// conjunct; a nil expression yields nil. Given a non-nil from, it also
// appends the node each predicate literal was copied from, in the order the
// literals appear across the predicates.
func extractPredicates(where sqlast.Expr, from *[]*sqlast.Literal) []Predicate {
	if where == nil {
		return nil
	}
	conjuncts := make([]sqlast.Expr, 0, countConjuncts(where))
	flattenAnd(where, &conjuncts)
	preds := make([]Predicate, 0, len(conjuncts))
	for _, c := range conjuncts {
		preds = append(preds, summarize(c, from))
	}
	return preds
}

// addLiteral appends lit's value to p's literals and, when from is
// non-nil, lit itself to from.
func addLiteral(p *Predicate, lit *sqlast.Literal, from *[]*sqlast.Literal) {
	p.Literals = append(p.Literals, *lit)
	if from != nil {
		*from = append(*from, lit)
	}
}

// countConjuncts sizes flattenAnd's output exactly, so the conjunct slice
// is allocated once instead of growing through appends.
func countConjuncts(e sqlast.Expr) int {
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		if x.Op == "AND" {
			return countConjuncts(x.Left) + countConjuncts(x.Right)
		}
	case *sqlast.ParenExpr:
		return countConjuncts(x.X)
	}
	return 1
}

func flattenAnd(e sqlast.Expr, out *[]sqlast.Expr) {
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		if x.Op == "AND" {
			flattenAnd(x.Left, out)
			flattenAnd(x.Right, out)
			return
		}
	case *sqlast.ParenExpr:
		flattenAnd(x.X, out)
		return
	}
	*out = append(*out, e)
}

func summarize(e sqlast.Expr, from *[]*sqlast.Literal) Predicate {
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		switch x.Op {
		case "=", "<>", "<", ">", "<=", ">=":
			col, colOK := asColumn(x.Left)
			if !colOK {
				// value op column — normalize by flipping.
				if rcol, ok := asColumn(x.Right); ok {
					return summarizeCmp(rcol, flipOp(x.Op), x.Left, from)
				}
				return Predicate{Op: "complex"}
			}
			return summarizeCmp(col, x.Op, x.Right, from)
		}
		return Predicate{Op: "complex"}
	case *sqlast.InExpr:
		col, ok := asColumn(x.X)
		if !ok || x.Sub != nil || x.Not {
			return Predicate{Op: "complex"}
		}
		p := Predicate{Qualifier: canon(col.Qualifier), Column: canon(col.Name), Op: "IN"}
		for _, it := range x.List {
			if lit, ok := it.(*sqlast.Literal); ok {
				addLiteral(&p, lit, from)
			}
		}
		return p
	case *sqlast.BetweenExpr:
		col, ok := asColumn(x.X)
		if !ok || x.Not {
			return Predicate{Op: "complex"}
		}
		p := Predicate{Qualifier: canon(col.Qualifier), Column: canon(col.Name), Op: "BETWEEN"}
		if lo, ok := x.Lo.(*sqlast.Literal); ok {
			addLiteral(&p, lo, from)
		}
		if hi, ok := x.Hi.(*sqlast.Literal); ok {
			addLiteral(&p, hi, from)
		}
		return p
	case *sqlast.IsNullExpr:
		col, ok := asColumn(x.X)
		if !ok {
			return Predicate{Op: "complex"}
		}
		op := "IS NULL"
		if x.Not {
			op = "IS NOT NULL"
		}
		return Predicate{Qualifier: canon(col.Qualifier), Column: canon(col.Name), Op: op}
	case *sqlast.LikeExpr:
		col, ok := asColumn(x.X)
		if !ok || x.Not {
			return Predicate{Op: "complex"}
		}
		p := Predicate{Qualifier: canon(col.Qualifier), Column: canon(col.Name), Op: "LIKE"}
		if lit, ok := x.Pattern.(*sqlast.Literal); ok {
			addLiteral(&p, lit, from)
		}
		return p
	case *sqlast.ParenExpr:
		return summarize(x.X, from)
	}
	return Predicate{Op: "complex"}
}

func summarizeCmp(col *sqlast.ColumnRef, op string, rhs sqlast.Expr, from *[]*sqlast.Literal) Predicate {
	p := Predicate{Qualifier: canon(col.Qualifier), Column: canon(col.Name), Op: op}
	switch r := rhs.(type) {
	case *sqlast.Literal:
		if r.Kind == "null" {
			p.NullCompare = op == "=" || op == "<>"
		}
		addLiteral(&p, r, from)
	case *sqlast.ColumnRef:
		if !r.Star {
			p.OtherColumn = canon(r.Name)
			if q := canon(r.Qualifier); q != "" {
				p.OtherColumn = q + "." + p.OtherColumn
			}
		}
	case *sqlast.Variable:
		// Variables act as parameters; treat like a literal-valued filter
		// with no recorded value.
	default:
		p.Op = "complex"
		p.Column = ""
		p.Qualifier = ""
	}
	return p
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

func asColumn(e sqlast.Expr) (*sqlast.ColumnRef, bool) {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		if x.Star {
			return nil, false
		}
		return x, true
	case *sqlast.ParenExpr:
		return asColumn(x.X)
	}
	return nil, false
}

func canon(s string) string { return strings.ToLower(s) }

// containsStr is the membership test for the small ordered string sets
// below. Select lists and FROM clauses hold a handful of names, where a
// linear scan over the output slice beats allocating a map per statement.
func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func selectColumns(sel *sqlast.SelectStatement) []string {
	var out []string
	add := func(name string) {
		if name != "" && !containsStr(out, name) {
			out = append(out, name)
		}
	}
	for _, it := range sel.Items {
		sqlast.Walk(it.Expr, func(n sqlast.Node) bool {
			if c, ok := n.(*sqlast.ColumnRef); ok {
				if c.Star {
					add("*")
				} else {
					add(canon(c.Name))
				}
			}
			// Do not descend into subqueries in the select list: their
			// output columns are not this query's output columns.
			_, isSub := n.(*sqlast.SubqueryExpr)
			return !isSub
		})
	}
	return out
}

func tableNames(sel *sqlast.SelectStatement) []string {
	var out []string
	for _, t := range sqlast.Tables(sel) {
		name := canon(t.Name)
		if !containsStr(out, name) {
			out = append(out, name)
		}
	}
	return out
}
