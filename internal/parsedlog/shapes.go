package parsedlog

import (
	"encoding/binary"
	"sync"

	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqltoken"
)

// maxShapes caps the shape table. An entry costs about 1–2 KB, so a full
// table holds a few MB; past the cap, statements of unknown shapes are
// parsed and summarized without being recorded.
const maxShapes = 4096

// shapeTable maps a SELECT's shape key (appendShapeKey) to the shapes with
// that key. Keys leave out every number and string value, but a number
// token that is not a literal (a CAST type argument, a CONVERT style) is
// part of the shape's identity: entries under one key differ in those
// values. Safe for concurrent use; the zero value is ready.
type shapeTable struct {
	mu sync.Mutex
	m  map[string][]*shape
	n  int
}

// shape is one table entry: the Shape and the values its statement has at
// the number and string tokens that are not literals.
type shape struct {
	*skeleton.Shape
	fixed []fixedToken
}

type fixedToken struct {
	i   int
	val string
}

// matches reports whether toks, whose key is the entry's, has the entry's
// values at its fixed tokens.
func (s *shape) matches(toks []sqltoken.Token) bool {
	for _, f := range s.fixed {
		if toks[f.i].Val != f.val {
			return false
		}
	}
	return true
}

// appendShapeKey appends the shape key of toks: every token's kind, and the
// length-prefixed value of every token that is not a number or a string.
func appendShapeKey(b []byte, toks []sqltoken.Token) []byte {
	for _, t := range toks {
		b = append(b, byte(t.Kind))
		if t.Kind != sqltoken.Number && t.Kind != sqltoken.String {
			b = binary.AppendUvarint(b, uint64(len(t.Val)))
			b = append(b, t.Val...)
		}
	}
	return b
}

// find returns the shape of toks, whose key is key, or nil; full reports
// that the table has no room for another shape.
func (t *shapeTable) find(key []byte, toks []sqltoken.Token) (sh *skeleton.Shape, full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.m[string(key)] {
		if s.matches(toks) {
			return s.Shape, false
		}
	}
	return nil, t.n >= maxShapes
}

// add records sh as the shape of toks unless the table is full or another
// goroutine recorded it first, and returns the table's size. lits maps the
// statement's literals to their tokens; every other number and string token
// is fixed.
func (t *shapeTable) add(key []byte, toks []sqltoken.Token, lits map[*sqlast.Literal]int, sh *skeleton.Shape) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= maxShapes {
		return t.n
	}
	chain := t.m[string(key)]
	for _, s := range chain {
		if s.matches(toks) {
			return t.n
		}
	}
	slots := make([]bool, len(toks))
	for _, i := range lits {
		slots[i] = true
	}
	e := &shape{Shape: sh}
	for i, tok := range toks {
		if (tok.Kind == sqltoken.Number || tok.Kind == sqltoken.String) && !slots[i] {
			e.fixed = append(e.fixed, fixedToken{i: i, val: tok.Val})
		}
	}
	if t.m == nil {
		t.m = map[string][]*shape{}
	}
	t.m[string(key)] = append(chain, e)
	t.n++
	return t.n
}

// scratch is one miss's reusable buffers: the statement's tokens and its
// shape key. Token values alias the statement text or interned keywords,
// never the buffers, so both go back to the pool when the miss is done.
type scratch struct {
	toks []sqltoken.Token
	key  []byte
}

var scratchPool = sync.Pool{
	New: func() any { return &scratch{toks: make([]sqltoken.Token, 0, 128), key: make([]byte, 0, 512)} },
}
