package overlap

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"sqlclean/internal/skeleton"
)

// This file holds the production form of a predicate box. A Box keeps its
// tables and dimensions in maps, which suits the ClusterBoxes oracle and
// callers that build boxes by hand, but costs a map per box and a sort per
// comparison. A FlatBox is built straight from a statement's summary, with
// no map: tables and dimensions as name-sorted slices, plus a 64-bit hash
// of that canonical form. Two boxes are the same box when their
// hashes match and an exact comparison agrees, so identity needs no
// formatted signature and no separator can make two different boxes
// collide. "Query Log Compression for Workload Analytics" (PAPERS.md) makes
// the same move: each query is encoded once over a shared vocabulary, and
// everything downstream compares encodings.

// FlatBox is the accessed region of one query in flat form. It is immutable
// once built, so a FlatBox may be shared between goroutines.
type FlatBox struct {
	tables []string  // sorted, unique
	dims   []flatDim // sorted by column name, one per column
	hash   uint64    // boxHash of the above
	// exact reports that the box is at distance 0 from itself. Only a box
	// with an empty interval is not: it overlaps nothing, not even a copy of
	// itself, so the leader scan never merges two copies of it.
	exact bool
}

// flatDim constrains one column. A set dim keeps its sorted, unique members,
// and iv is the covering interval of a numeric IN list (zero otherwise). That
// interval matters only while conjuncts on one column combine: dimOverlap
// never reads a set's interval, so it is not part of the box's identity. An
// interval dim keeps its raw Interval, where the zero Interval stands for the
// whole domain (orFull).
type flatDim struct {
	col   string
	isSet bool
	set   []string
	iv    Interval
}

// FlatFromInfo derives the flat box of a query from its skeleton summary; a
// nil summary gives the box of a query that reads no table and constrains
// no column. The predicate-to-constraint rules (dimFromPredicate and
// combineDims) exist only here: FromInfo converts this function's result.
func FlatFromInfo(in *skeleton.Info) FlatBox {
	var b FlatBox
	if in != nil {
		b.tables = uniqueSorted(in.TableNames)
		for k, p := range in.Predicates {
			if p.Column == "" || p.Op == "complex" {
				continue
			}
			d, ok := dimFromPredicate(p)
			if !ok {
				continue
			}
			if i := b.dimIndex(p.Column); i >= 0 {
				b.dims[i] = combineDims(b.dims[i], d)
				continue
			}
			if b.dims == nil {
				// One allocation for every column this box can constrain.
				b.dims = make([]flatDim, 0, len(in.Predicates)-k)
			}
			b.dims = append(b.dims, d)
		}
	}
	b.seal()
	return b
}

// FromInfo derives the box of a query from its skeleton summary: the map
// form of FlatFromInfo's result.
func FromInfo(in *skeleton.Info) Box { return FlatFromInfo(in).mapBox() }

// uniqueSorted returns names sorted with duplicates removed. Already
// strictly increasing input (the common one- or two-table query) is shared,
// not copied; nothing ever writes to a box's tables.
func uniqueSorted(names []string) []string {
	increasing := true
	for i := 1; i < len(names) && increasing; i++ {
		increasing = names[i-1] < names[i]
	}
	if increasing {
		return names
	}
	out := slices.Clone(names)
	slices.Sort(out)
	return slices.Compact(out)
}

func (b *FlatBox) dimIndex(col string) int {
	for i := range b.dims {
		if b.dims[i].col == col {
			return i
		}
	}
	return -1
}

func dimFromPredicate(p skeleton.Predicate) (flatDim, bool) {
	num := func(i int) (float64, bool) {
		if i >= len(p.Literals) || p.Literals[i].Kind != "num" {
			return 0, false
		}
		f, err := strconv.ParseFloat(p.Literals[i].Val, 64)
		return f, err == nil
	}
	d := flatDim{col: p.Column}
	switch p.Op {
	case "=":
		if v, ok := num(0); ok {
			d.iv = Interval{Lo: v, Hi: v}
			return d, true
		}
		if len(p.Literals) == 1 && p.Literals[0].Kind == "str" {
			d.isSet, d.set = true, []string{strings.ToLower(p.Literals[0].Val)}
			return d, true
		}
	case "<", "<=":
		if v, ok := num(0); ok {
			d.iv = Interval{Lo: full.Lo, Hi: v}
			return d, true
		}
	case ">", ">=":
		if v, ok := num(0); ok {
			d.iv = Interval{Lo: v, Hi: full.Hi}
			return d, true
		}
	case "BETWEEN":
		lo, ok1 := num(0)
		hi, ok2 := num(1)
		if ok1 && ok2 {
			d.iv = Interval{Lo: lo, Hi: hi}
			return d, true
		}
	case "IN":
		if len(p.Literals) == 0 {
			return flatDim{}, false
		}
		set := make([]string, 0, len(p.Literals))
		numeric := true
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, l := range p.Literals {
			if l.Kind == "num" {
				if f, err := strconv.ParseFloat(l.Val, 64); err == nil {
					lo = math.Min(lo, f)
					hi = math.Max(hi, f)
					set = append(set, l.Val)
					continue
				}
			}
			numeric = false
			set = append(set, strings.ToLower(l.Val))
		}
		slices.Sort(set)
		d.isSet, d.set = true, slices.Compact(set)
		if numeric {
			// Discrete numeric sets behave like value sets for overlap.
			d.iv = Interval{Lo: lo, Hi: hi}
		}
		return d, true
	}
	return flatDim{}, false
}

// combineDims conjoins two constraints on one column: two sets intersect,
// anything else intersects as intervals (a set contributes its covering
// interval, the whole domain for a string set).
func combineDims(a, b flatDim) flatDim {
	if a.isSet && b.isSet {
		// a.set was built by this box's builder, so it is intersected in
		// place.
		out := a.set[:0]
		for i, j := 0, 0; i < len(a.set) && j < len(b.set); {
			switch {
			case a.set[i] < b.set[j]:
				i++
			case a.set[i] > b.set[j]:
				j++
			default:
				out = append(out, a.set[i])
				i++
				j++
			}
		}
		return flatDim{col: a.col, isSet: true, set: out}
	}
	return flatDim{col: a.col, iv: intersect(orFull(a.iv), orFull(b.iv))}
}

// seal sorts the dimensions by column and computes the hash and the exact
// flag. Builders call it last.
func (b *FlatBox) seal() {
	for i := 1; i < len(b.dims); i++ {
		for j := i; j > 0 && b.dims[j].col < b.dims[j-1].col; j-- {
			b.dims[j], b.dims[j-1] = b.dims[j-1], b.dims[j]
		}
	}
	b.exact = true
	for i := range b.dims {
		if d := &b.dims[i]; !d.isSet && orFull(d.iv).empty() {
			b.exact = false
		}
	}
	b.hash = boxHash(b)
}

// boxHash hashes a box's canonical form in the FNV-1a manner, strings byte
// by byte and everything else a 64-bit word at a time. Every string is
// preceded by its length and every dimension by its kind, so the encoding is
// prefix-free; floats enter as their bits, so −0 and +0 differ, as they do
// to dimOverlap's set-versus-point rule. A set's covering interval is left
// out (see flatDim).
func boxHash(b *FlatBox) uint64 {
	h := hashWord(fnvOffset, uint64(len(b.tables)))
	for _, t := range b.tables {
		h = hashString(h, t)
	}
	for i := range b.dims {
		d := &b.dims[i]
		h = hashString(h, d.col)
		if d.isSet {
			h = hashWord(h, uint64(len(d.set))<<1|1)
			for _, m := range d.set {
				h = hashString(h, m)
			}
			continue
		}
		h = hashWord(h, 0)
		h = hashWord(h, math.Float64bits(d.iv.Lo))
		h = hashWord(h, math.Float64bits(d.iv.Hi))
	}
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	h = hashWord(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// sameBox is the exact comparison behind a hash match: the same tables,
// and per column the same kind with the same members or the same interval
// bits.
func sameBox(a, b *FlatBox) bool {
	if a.hash != b.hash || !slices.Equal(a.tables, b.tables) || len(a.dims) != len(b.dims) {
		return false
	}
	for i := range a.dims {
		x, y := &a.dims[i], &b.dims[i]
		if x.col != y.col || x.isSet != y.isSet {
			return false
		}
		if x.isSet {
			if !slices.Equal(x.set, y.set) {
				return false
			}
			continue
		}
		if math.Float64bits(x.iv.Lo) != math.Float64bits(y.iv.Lo) || math.Float64bits(x.iv.Hi) != math.Float64bits(y.iv.Hi) {
			return false
		}
	}
	return true
}

// flatFromBox converts a map-based box to flat form.
func flatFromBox(b Box) FlatBox {
	f := FlatBox{tables: make([]string, 0, len(b.Tables)), dims: make([]flatDim, 0, len(b.Dims))}
	for t := range b.Tables {
		f.tables = append(f.tables, t)
	}
	slices.Sort(f.tables)
	for col, d := range b.Dims {
		fd := flatDim{col: col, iv: d.Interval}
		if d.Set != nil {
			fd.isSet = true
			fd.set = make([]string, 0, len(d.Set))
			for m := range d.Set {
				fd.set = append(fd.set, m)
			}
			slices.Sort(fd.set)
		}
		f.dims = append(f.dims, fd)
	}
	f.seal()
	return f
}

// mapBox converts a flat box to the map form.
func (b FlatBox) mapBox() Box {
	out := Box{Tables: make(map[string]bool, len(b.tables)), Dims: make(map[string]Dim, len(b.dims))}
	for _, t := range b.tables {
		out.Tables[t] = true
	}
	for _, d := range b.dims {
		md := Dim{Interval: d.iv}
		if d.isSet {
			md.Set = make(map[string]bool, len(d.set))
			for _, m := range d.set {
				md.Set[m] = true
			}
		}
		out.Dims[d.col] = md
	}
	return out
}

// BoxSet holds distinct flat boxes in insertion order, found by hash with
// an exact comparison on a hash match. The zero value is empty and ready to
// use. A BoxSet is not safe for concurrent use, but the slice Boxes returns
// is: stored boxes are never modified or moved within it.
type BoxSet struct {
	boxes []FlatBox
	head  map[uint64]int // hash -> index of the newest box with that hash
	next  []int          // index of the next older box with the same hash, or -1
}

// Find returns the index of the stored box equal to b, or -1. It returns -1
// for a box that is not at distance 0 from itself (one with an empty
// interval): such a box overlaps nothing, not even a copy of itself, so each
// copy is a box of its own.
func (s *BoxSet) Find(b *FlatBox) int {
	if !b.exact {
		return -1
	}
	i, ok := s.head[b.hash]
	if !ok {
		return -1
	}
	for ; i >= 0; i = s.next[i] {
		if sameBox(&s.boxes[i], b) {
			return i
		}
	}
	return -1
}

// Add stores b and returns its index. Callers add only boxes Find does not
// return.
func (s *BoxSet) Add(b FlatBox) int {
	if s.head == nil {
		s.head = map[uint64]int{}
	}
	i := len(s.boxes)
	prev, ok := s.head[b.hash]
	if !ok {
		prev = -1
	}
	s.boxes = append(s.boxes, b)
	s.next = append(s.next, prev)
	s.head[b.hash] = i
	return i
}

// Len returns the number of stored boxes.
func (s *BoxSet) Len() int { return len(s.boxes) }

// Boxes returns the stored boxes in insertion order. Later Adds never write
// to the returned slice's elements.
func (s *BoxSet) Boxes() []FlatBox { return s.boxes[:len(s.boxes):len(s.boxes)] }
