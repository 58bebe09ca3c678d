package overlap

import (
	"math"
	"slices"
	"strconv"
)

// This file removes the quadratic tail from leader clustering. ClusterBoxes
// compares every box against every existing leader, which degenerates to
// O(n²) exactly when the log is interesting: SkyServer's marching-window
// bots produce tens of thousands of *distinct* boxes, so the dedup in
// fast.go stops helping. The grid path buckets leaders by (column,
// constraint locality) so a box probes only the leaders it could possibly
// merge with, and the pruning is EXACT: the output is byte-identical to
// ClusterBoxes for every threshold.
//
// Why pruning can be exact. Let s = 1 − threshold. A box b joins leader r
// iff Distance(b, r) < threshold, i.e. Overlap(b, r) > s. Overlap is a
// product of per-column factors, each in [0, 1], so Overlap ≤ every factor:
// if ANY single column's factor is ≤ s the pair cannot merge. The grid
// picks one "anchor" column of b whose factor against an unconstrained
// leader (the full domain) is ≤ s; then every leader that does not
// constrain the anchor column is pruned outright, and the leaders that do
// constrain it are indexed so that only the ones whose per-column factor
// can exceed s are probed:
//
//   - set constraints: Jaccard > s ≥ 0 needs a shared element (or two empty
//     sets), so set leaders are indexed under each element;
//   - point intervals: the only non-zero interval partner is the identical
//     point (factor 1), and a set partner needs the formatted point as a
//     member (factor 1/|set|) — both are hash lookups;
//   - proper intervals: factor inter/hull > s bounds the hull by
//     len(b)/s, so a matching leader's Lo lies within R = len(b)/s of b's
//     Lo; quantizing leader Lo into cells of width w makes that a probe of
//     the cells covering [Lo−R, Lo+R]. Any fixed w is exact — w only
//     tunes how many leaders share a cell.
//
// Boxes with no qualifying anchor (no dims at all, or s = 0 with only
// proper intervals whose full-domain factor is positive) fall back to a
// table-keyed index, which is still exact because disjoint table sets give
// Overlap 0.
//
// The grid reads flat boxes with their tables and columns interned as
// dense ids, assigned in name order, so a box's id lists are sorted the way
// its names are and overlap walks two boxes' dimensions in ascending
// column-name order, allocation-free. A point meets a set member only when
// the member is the point's shortest formatting; interning turns such
// members into float bits once, so no lookup formats or concatenates a key.

// Counters reports the work a grid clustering run did versus what the
// serial leader scan would have done on the same input. All counts refer to
// pairwise Overlap evaluations (the expensive unit of clustering work), not
// wall clock. The grid runs serially, so every count is a function of the
// input and threshold alone: the worker count never changes it.
type Counters struct {
	// Boxes is the number of boxes clustered.
	Boxes int64
	// Comparisons is the number of Overlap evaluations performed.
	Comparisons int64
	// CellsProbed is the number of grid cells examined for interval
	// anchors.
	CellsProbed int64
	// ScanComparisons is the number of Overlap evaluations the plain
	// ClusterBoxes leader scan would have performed. Because grid output is
	// identical to the scan's, this counterfactual is exact: a box that
	// joined cluster ci would have been compared against leaders 0..ci,
	// and a box that founded a cluster against every prior leader.
	ScanComparisons int64
}

// Avoided is the number of pairwise comparisons the grid pruned away.
func (c Counters) Avoided() int64 { return c.ScanComparisons - c.Comparisons }

// gridLabels is ClusterBoxes with exact grid pruning, as labels: label[i] is
// the founding-order index of box i's cluster and k the number of clusters.
// ctr may be nil.
func gridLabels(boxes []FlatBox, threshold float64, ctr *Counters) (label []int32, k int) {
	n := int64(len(boxes))
	label = make([]int32, len(boxes))
	if ctr != nil {
		ctr.Boxes += n
	}
	switch {
	case threshold <= 0:
		// Distance ≥ 0, so nothing merges and no Overlap call is needed.
		if ctr != nil {
			ctr.ScanComparisons += n * (n - 1) / 2
		}
		for i := range label {
			label[i] = int32(i)
		}
		return label, len(boxes)
	case threshold > 1:
		// Distance ≤ 1, so everything joins the first box.
		if ctr != nil && n > 1 {
			ctr.ScanComparisons += n - 1
		}
		return label, min(len(boxes), 1)
	}
	gb, ntables, ncols := intern(boxes)
	g := newGrid(gb, threshold, ntables, ncols)
	var leaders []int32 // box index of each cluster's leader
	var cand []int32
	for i := range gb {
		b := &gb[i]
		cand = g.lookup(b, cand[:0], ctr)
		joined := int32(-1)
		for _, ci := range cand {
			if ctr != nil {
				ctr.Comparisons++
			}
			if 1-overlapInterned(b, &gb[leaders[ci]]) < threshold {
				joined = ci
				break
			}
		}
		if joined >= 0 {
			label[i] = joined
			if ctr != nil {
				ctr.ScanComparisons += int64(joined) + 1
			}
			continue
		}
		if ctr != nil {
			ctr.ScanComparisons += int64(len(leaders))
		}
		label[i] = int32(len(leaders))
		g.add(b, int32(len(leaders)))
		leaders = append(leaders, int32(i))
	}
	return label, len(leaders)
}

// ---------------------------------------------------------------------------
// Interned boxes and their overlap
// ---------------------------------------------------------------------------

// gbox is a flat box with interned tables and dims, both in id order.
type gbox struct {
	tables []int32
	dims   []gdim
}

// gdim is a flat dim as the grid reads it: the column interned, an interval
// widened by orFull (every reader of an interval dim widens it first), and a
// set's numeric members (numMembers) found once.
type gdim struct {
	col   int32
	isSet bool
	iv    Interval // unused for sets
	set   []string
	nums  []uint64
}

// fullDim is an unconstrained column.
var fullDim = gdim{iv: full}

// intern converts boxes to the grid's form. Ids are ranks in name order.
// The table "" is always interned, with id 0: the table index files
// table-less boxes under it.
func intern(boxes []FlatBox) (gb []gbox, ntables, ncols int) {
	tabID := map[string]int32{"": 0}
	colID := map[string]int32{}
	ntab, ndim := 0, 0
	for i := range boxes {
		for _, t := range boxes[i].tables {
			tabID[t] = 0
		}
		for j := range boxes[i].dims {
			colID[boxes[i].dims[j].col] = 0
		}
		ntab += len(boxes[i].tables)
		ndim += len(boxes[i].dims)
	}
	rank(tabID)
	rank(colID)
	tabs := make([]int32, 0, ntab)
	dims := make([]gdim, 0, ndim)
	gb = make([]gbox, len(boxes))
	for i := range boxes {
		b := &boxes[i]
		t0, d0 := len(tabs), len(dims)
		for _, t := range b.tables {
			tabs = append(tabs, tabID[t])
		}
		for j := range b.dims {
			d := &b.dims[j]
			g := gdim{col: colID[d.col], isSet: d.isSet}
			if d.isSet {
				g.set, g.nums = d.set, numMembers(d.set)
			} else {
				g.iv = orFull(d.iv)
			}
			dims = append(dims, g)
		}
		gb[i] = gbox{tables: tabs[t0:len(tabs):len(tabs)], dims: dims[d0:len(dims):len(dims)]}
	}
	return gb, len(tabID), len(colID)
}

// rank replaces every id in ids with its name's rank in sorted order.
func rank(ids map[string]int32) {
	names := make([]string, 0, len(ids))
	for name := range ids {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		ids[name] = int32(i)
	}
}

// numMembers returns, sorted, the bits of every float64 whose shortest
// formatting (strconv.FormatFloat(f, 'g', -1, 64)) is a member of set. Those
// are the only members a point can equal in dimOverlap's set-versus-point
// rule, and because the formatting is one-to-one, comparing bits is
// comparing the formatted strings.
func numMembers(set []string) []uint64 {
	var out []uint64
	var buf [32]byte
	for _, m := range set {
		f, err := strconv.ParseFloat(m, 64)
		if err != nil || string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != m {
			continue
		}
		out = append(out, math.Float64bits(f))
	}
	slices.Sort(out)
	return out
}

// overlapInterned is Overlap on interned boxes. It multiplies the factors
// in ascending column-name order, as Overlap does, so both return the same
// bits.
func overlapInterned(a, b *gbox) float64 {
	if (len(a.tables) > 0 || len(b.tables) > 0) && !sharesTable(a.tables, b.tables) {
		return 0
	}
	ratio := 1.0
	i, j := 0, 0
	for i < len(a.dims) || j < len(b.dims) {
		var f float64
		switch {
		case j == len(b.dims) || i < len(a.dims) && a.dims[i].col < b.dims[j].col:
			f = dimFactor(&a.dims[i], &fullDim)
			i++
		case i == len(a.dims) || b.dims[j].col < a.dims[i].col:
			f = dimFactor(&fullDim, &b.dims[j])
			j++
		default:
			f = dimFactor(&a.dims[i], &b.dims[j])
			i++
			j++
		}
		ratio *= f
		if ratio == 0 {
			return 0
		}
	}
	return ratio
}

func sharesTable(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// dimFactor is dimOverlap on interned dims.
func dimFactor(a, b *gdim) float64 {
	if a.isSet && b.isSet {
		inter := 0
		for i, j := 0, 0; i < len(a.set) && j < len(b.set); {
			switch {
			case a.set[i] < b.set[j]:
				i++
			case a.set[i] > b.set[j]:
				j++
			default:
				inter++
				i++
				j++
			}
		}
		union := len(a.set) + len(b.set) - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}
	if a.isSet || b.isSet {
		set, iv := a, b.iv
		if b.isSet {
			set, iv = b, a.iv
		}
		if iv.length() == 0 {
			if _, in := slices.BinarySearch(set.nums, math.Float64bits(iv.Lo)); in {
				return 1 / float64(len(set.set))
			}
		}
		return 0
	}
	inter := intersect(a.iv, b.iv)
	if inter.empty() {
		return 0
	}
	u := hull(a.iv, b.iv).length()
	if u == 0 {
		return 1 // both are the same point
	}
	if inter.length() == 0 {
		// Point inside a wider interval: infinitesimal overlap.
		return 0
	}
	return inter.length() / u
}

// ---------------------------------------------------------------------------
// The leader index
// ---------------------------------------------------------------------------

type anchorKind int

const (
	anchorNone anchorKind = iota
	anchorSet
	anchorEmptyInterval
	anchorPoint
	anchorInterval
)

type grid struct {
	s       float64   // 1 − threshold: the factor every column must beat
	byTable [][]int32 // table id -> leaders; id 0 ("") also holds table-less leaders
	cols    []colIndex
}

// colIndex holds one column's leaders, keyed the way dimFactor can match
// them.
type colIndex struct {
	dims      int                // dims on this column in the input: a capacity hint
	width     float64            // cell width
	members   map[string][]int32 // set leaders by member
	nums      map[uint64][]int32 // set leaders by numeric member (numMembers)
	los       map[uint64][]int32 // point and empty-interval leaders by Lo bits
	points    map[uint64][]int32 // point leaders by Lo bits, −0 folded into +0
	emptySets []int32
	cells     map[int64][]int32 // proper-interval leaders by cell of Lo
	flat      []int32           // all proper-interval leaders
}

func newGrid(boxes []gbox, threshold float64, ntables, ncols int) *grid {
	g := &grid{s: 1 - threshold, byTable: make([][]int32, ntables), cols: make([]colIndex, ncols)}
	// Cell width per column: the median proper-interval length in the
	// input. Any positive width keeps pruning exact; matching the typical
	// constraint size keeps both the cells-per-probe and the
	// leaders-per-cell counts small.
	lengths := make([][]float64, ncols)
	for i := range boxes {
		for _, d := range boxes[i].dims {
			g.cols[d.col].dims++
			if l := d.iv.length(); !d.isSet && l > 0 {
				lengths[d.col] = append(lengths[d.col], l)
			}
		}
	}
	for col, ls := range lengths {
		w := 1.0
		if len(ls) > 0 {
			slices.Sort(ls)
			if m := ls[len(ls)/2]; m > 0 && m < math.MaxFloat64 {
				w = m
			}
		}
		g.cols[col].width = w
	}
	return g
}

func cellOf(x, w float64) int64 {
	c := math.Floor(x / w)
	const clamp = 1e18
	if c < -clamp {
		return -clamp
	}
	if c > clamp {
		return clamp
	}
	return int64(c)
}

// pointBits keys a point numerically: −0 folds to +0 so equal points map to
// equal keys.
func pointBits(p float64) uint64 {
	if p == 0 {
		p = 0 // fold −0
	}
	return math.Float64bits(p)
}

// push appends leader ci to key k's list, creating the map sized for hint
// keys on first use: growing a map rehashes it, and most keys here hold one
// leader.
func push[K comparable](m *map[K][]int32, k K, ci int32, hint int) {
	if *m == nil {
		*m = make(map[K][]int32, hint)
	}
	(*m)[k] = append((*m)[k], ci)
}

// add indexes the leader of a newly founded cluster.
func (g *grid) add(b *gbox, ci int32) {
	if len(b.tables) == 0 {
		g.byTable[0] = append(g.byTable[0], ci)
	}
	for _, t := range b.tables {
		g.byTable[t] = append(g.byTable[t], ci)
	}
	for i := range b.dims {
		d := &b.dims[i]
		c := &g.cols[d.col]
		if d.isSet {
			if len(d.set) == 0 {
				c.emptySets = append(c.emptySets, ci)
			}
			for _, m := range d.set {
				push(&c.members, m, ci, c.dims)
			}
			for _, q := range d.nums {
				push(&c.nums, q, ci, c.dims)
			}
			continue
		}
		switch {
		case d.iv.empty():
			// An empty interval still matches a set containing its
			// formatted Lo (dimFactor's zero-length branch); no interval
			// partner can match it.
			push(&c.los, math.Float64bits(d.iv.Lo), ci, c.dims)
		case d.iv.length() == 0:
			push(&c.los, math.Float64bits(d.iv.Lo), ci, c.dims)
			push(&c.points, pointBits(d.iv.Lo), ci, c.dims)
		default:
			push(&c.cells, cellOf(d.iv.Lo, c.width), ci, c.dims)
			c.flat = append(c.flat, ci)
		}
	}
}

// anchor picks the dim of b that prunes best: one whose factor against an
// unconstrained leader is ≤ s, preferring the probe kinds with the cheapest
// lookups, then the smallest constraint, then the first column by name.
// Returns anchorNone when no dim qualifies (then the caller falls back to
// the table index).
func (g *grid) anchor(b *gbox) (*gdim, anchorKind) {
	var best *gdim
	bestKind, bestSize := anchorNone, 0.0
	for i := range b.dims {
		d := &b.dims[i]
		kind, size := anchorNone, 0.0
		switch {
		case d.isSet:
			kind, size = anchorSet, float64(len(d.set))
		case d.iv.empty():
			kind = anchorEmptyInterval
		case d.iv.length() == 0:
			kind = anchorPoint
		case dimFactor(d, &fullDim) <= g.s:
			// A proper interval qualifies only when its factor against
			// the full domain cannot beat s.
			kind, size = anchorInterval, d.iv.length()
		}
		// Dims come in ascending column order, so a strict improvement
		// keeps the first column among equals.
		if kind != anchorNone && (bestKind == anchorNone || kind < bestKind || kind == bestKind && size < bestSize) {
			best, bestKind, bestSize = d, kind, size
		}
	}
	return best, bestKind
}

// lookup returns the founding-order-sorted cluster indices whose leaders
// could be within threshold of b. The set is a superset of the true
// matches (the caller verifies with the overlap) and exact: every leader
// with Overlap(b, leader) > s is included.
func (g *grid) lookup(b *gbox, out []int32, ctr *Counters) []int32 {
	d, kind := g.anchor(b)
	switch kind {
	case anchorNone:
		// No prunable column: any leader sharing a table (or, for a
		// table-less box, any table-less leader) might match.
		if len(b.tables) == 0 {
			out = append(out, g.byTable[0]...)
		}
		for _, t := range b.tables {
			out = append(out, g.byTable[t]...)
		}
	case anchorSet:
		c := &g.cols[d.col]
		if len(d.set) == 0 {
			out = append(out, c.emptySets...)
		}
		for _, m := range d.set {
			out = append(out, c.members[m]...)
		}
		for _, q := range d.nums {
			out = append(out, c.los[q]...)
		}
	case anchorEmptyInterval:
		c := &g.cols[d.col]
		lo := math.Float64bits(d.iv.Lo)
		out = append(out, c.nums[lo]...)
		out = append(out, c.los[lo]...)
	case anchorPoint:
		c := &g.cols[d.col]
		lo := math.Float64bits(d.iv.Lo)
		out = append(out, c.nums[lo]...)
		out = append(out, c.los[lo]...)
		out = append(out, c.points[pointBits(d.iv.Lo)]...)
	case anchorInterval:
		c := &g.cols[d.col]
		probedCells := false
		if g.s > 0 {
			// A leader with factor > s sits within R of b's Lo (hull <
			// inter/s ≤ len(b)/s); the tiny inflation and the ±1 cell
			// absorb floating-point rounding — a superset stays exact.
			r := d.iv.length() / g.s
			r += r * 1e-9
			cLo := cellOf(d.iv.Lo-r, c.width) - 1
			cHi := cellOf(d.iv.Lo+r, c.width) + 1
			if n := cHi - cLo + 1; n > 0 && n <= int64(len(c.flat)) {
				for cell := cLo; cell <= cHi; cell++ {
					if ctr != nil {
						ctr.CellsProbed++
					}
					out = append(out, c.cells[cell]...)
				}
				probedCells = true
			}
		}
		if !probedCells {
			out = append(out, c.flat...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
