package skeleton

import (
	"strings"

	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqltoken"
)

// Shape is what the summaries of all SELECTs of one token shape share. Two
// statements have the same shape when their tokens are equal but for the
// values of the number and string literals. They parse to the same tree but
// for those values, so their summaries differ only where a literal's value
// shows: in the concrete clause texts behind SCHash, FCHash and WCHash, and
// in the predicates' literals. A Shape keeps the summary of the statement it
// was built from with those places left as holes, and Bind fills the holes
// from another statement's tokens without parsing or printing anything.
//
// Deciding that two statements have the same shape is the caller's job. It
// takes equal token kinds, equal values of all tokens that are not numbers
// or strings, and equal values of the number and string tokens the parser
// did not turn into literals (CAST type arguments, the CONVERT style).
type Shape struct {
	sk *Skeleton
	// clauses are the concrete SELECT, FROM and WHERE clauses.
	clauses [3]clause
	// preds are the predicates of the statement the shape was built from;
	// predHoles are their literals that came from a token, and nlits counts
	// all their literals.
	preds     []Predicate
	predHoles []predHole
	nlits     int
}

// slot is where a literal comes from: the index of its token, and whether
// the parser folded a unary minus into it.
type slot struct {
	tok int
	neg bool
}

// clause is a concrete clause text with its literals, in text order, as
// holes.
type clause struct {
	text  string
	holes []hole
}

// hole is a literal in a clause text: the bytes [start, end) it occupies in
// the statement the shape was built from, and the token that fills it.
type hole struct {
	start, end int
	slot
}

// predHole is literal lit of predicate pred.
type predHole struct {
	pred, lit int
	slot
}

// SummarizeShape is Summarize for a statement parsed with the origins of its
// literals (sqlparser.ParseTokens with a non-nil map). Besides filling in
// the summary it returns the statement's Shape, or nil if some literal's
// token is not in lits.
func (t *Skeletons) SummarizeShape(in *Info, sel *sqlast.SelectStatement, lits map[*sqlast.Literal]int) *Shape {
	return fillInfo(in, sel, t, lits)
}

// newShape cuts the holes out of the concrete clauses, which lie in
// s[bounds[0]:bounds[3]] with clause i ending at bounds[i+1]. spans are the
// printed literals; from are the nodes in's predicate literals were copied
// from.
func newShape(in *Info, s string, bounds [4]int, spans []sqlast.LiteralSpan, from []*sqlast.Literal, lits map[*sqlast.Literal]int) *Shape {
	sh := &Shape{sk: in.Skeleton, preds: in.Predicates, nlits: len(from)}
	conc := strings.Clone(s[bounds[0]:bounds[3]])
	for i := range sh.clauses {
		sh.clauses[i].text = conc[bounds[i]-bounds[0] : bounds[i+1]-bounds[0]]
	}
	c := 0
	for _, sp := range spans {
		for sp.Start >= bounds[c+1] {
			c++
		}
		sl, ok := slotOf(sp.Lit, lits)
		if !ok {
			return nil
		}
		sh.clauses[c].holes = append(sh.clauses[c].holes, hole{start: sp.Start - bounds[c], end: sp.End - bounds[c], slot: sl})
	}
	k := 0
	for i, p := range in.Predicates {
		for j := range p.Literals {
			lit := from[k]
			k++
			if lit.Kind == "null" {
				continue
			}
			sl, ok := slotOf(lit, lits)
			if !ok {
				return nil
			}
			sh.predHoles = append(sh.predHoles, predHole{pred: i, lit: j, slot: sl})
		}
	}
	return sh
}

func slotOf(l *sqlast.Literal, lits map[*sqlast.Literal]int) (slot, bool) {
	tok, ok := lits[l]
	// A number token never starts with a sign, so a leading minus is a
	// folded unary minus.
	return slot{tok: tok, neg: l.Kind == "num" && strings.HasPrefix(l.Val, "-")}, ok
}

// Bind fills in the summary (all fields but Statement) of a statement of
// this shape from its tokens. The result equals what Summarize makes of the
// statement's tree, down to the Skeleton record.
func (sh *Shape) Bind(in *Info, toks []sqltoken.Token) {
	in.Skeleton = sh.sk
	in.Fingerprint = sh.sk.fp
	in.SCHash = sh.clauses[0].hash(toks)
	in.FCHash = sh.clauses[1].hash(toks)
	in.WCHash = sh.clauses[2].hash(toks)
	in.Predicates = sh.predicates(toks)
}

// predicates copies the shape's predicates with toks' literals in the
// holes. All literal slices share one backing array, each capped at its own
// length.
func (sh *Shape) predicates(toks []sqltoken.Token) []Predicate {
	if sh.preds == nil {
		return nil
	}
	preds := make([]Predicate, len(sh.preds))
	lits := make([]sqlast.Literal, 0, sh.nlits)
	for i, p := range sh.preds {
		if p.Literals != nil {
			n := len(lits)
			lits = append(lits, p.Literals...)
			p.Literals = lits[n:len(lits):len(lits)]
		}
		preds[i] = p
	}
	for _, h := range sh.predHoles {
		preds[h.pred].Literals[h.lit] = h.literal(toks)
	}
	return preds
}

// hash is HashClause of the clause text with toks' literals in the holes.
func (c *clause) hash(toks []sqltoken.Token) uint64 {
	h, at := fnvOffset, 0
	for _, hl := range c.holes {
		h = hl.hash(fnvString(h, c.text[at:hl.start]), toks)
		at = hl.end
	}
	return fnvString(h, c.text[at:])
}

// hash continues h over the literal as the printer renders it.
func (s slot) hash(h uint64, toks []sqltoken.Token) uint64 {
	t := toks[s.tok]
	if t.Kind == sqltoken.String {
		h = fnvByte(h, '\'')
		for i := 0; i < len(t.Val); i++ {
			if t.Val[i] == '\'' {
				h = fnvByte(h, '\'') // printed doubled
			}
			h = fnvByte(h, t.Val[i])
		}
		return fnvByte(h, '\'')
	}
	if s.neg {
		h = fnvByte(h, '-')
	}
	return fnvString(h, t.Val)
}

// literal is the Literal the parser builds from the slot's token.
func (s slot) literal(toks []sqltoken.Token) sqlast.Literal {
	t := toks[s.tok]
	switch {
	case t.Kind == sqltoken.String:
		return sqlast.Literal{Kind: "str", Val: t.Val}
	case s.neg:
		return sqlast.Literal{Kind: "num", Val: "-" + t.Val}
	}
	return sqlast.Literal{Kind: "num", Val: t.Val}
}
