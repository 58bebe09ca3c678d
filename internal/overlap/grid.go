package overlap

import (
	"math"
	"sort"
	"strconv"
)

// This file removes the quadratic tail from leader clustering. ClusterBoxes
// compares every box against every existing leader, which degenerates to
// O(n²) exactly when the log is interesting: SkyServer's marching-window
// bots produce tens of thousands of *distinct* boxes, so the signature
// dedup in fast.go stops helping. The grid path buckets leaders by
// (column, constraint locality) so a box probes only the leaders it could
// possibly merge with, and the pruning is EXACT: the output is
// byte-identical to ClusterBoxes for every threshold.
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

// clusterGrid is ClusterBoxes with exact grid pruning: identical output,
// near-linear on logs whose boxes are local (the common case — real
// predicates constrain a few columns with bounded ranges). ctr may be nil.
func clusterGrid(boxes []Box, threshold float64, ctr *Counters) []Cluster {
	if cl, done := trivialClusters(boxes, threshold, ctr); done {
		return cl
	}
	if ctr != nil {
		ctr.Boxes += int64(len(boxes))
	}
	g := newGridIndex(boxes, threshold)
	var clusters []Cluster
	var cand []int
	for i, b := range boxes {
		cand = g.lookup(b, cand[:0], ctr)
		joined := -1
		for _, ci := range cand {
			if ctr != nil {
				ctr.Comparisons++
			}
			if Distance(b, boxes[clusters[ci].Representative]) < threshold {
				joined = ci
				break
			}
		}
		if joined >= 0 {
			clusters[joined].Members = append(clusters[joined].Members, i)
			if ctr != nil {
				ctr.ScanComparisons += int64(joined) + 1
			}
			continue
		}
		if ctr != nil {
			ctr.ScanComparisons += int64(len(clusters))
		}
		g.add(b, len(clusters))
		clusters = append(clusters, Cluster{Representative: i, Members: []int{i}})
	}
	return clusters
}

// trivialClusters handles the degenerate thresholds where no Overlap call
// is ever needed: threshold ≤ 0 never merges (Distance ≥ 0), threshold > 1
// always merges (Distance ≤ 1).
func trivialClusters(boxes []Box, threshold float64, ctr *Counters) ([]Cluster, bool) {
	n := int64(len(boxes))
	if threshold <= 0 {
		if ctr != nil {
			ctr.Boxes += n
			ctr.ScanComparisons += n * (n - 1) / 2
		}
		out := make([]Cluster, len(boxes))
		for i := range boxes {
			out[i] = Cluster{Representative: i, Members: []int{i}}
		}
		return out, true
	}
	if threshold > 1 {
		if ctr != nil {
			ctr.Boxes += n
			if n > 1 {
				ctr.ScanComparisons += n - 1
			}
		}
		if len(boxes) == 0 {
			return nil, true
		}
		members := make([]int, len(boxes))
		for i := range members {
			members[i] = i
		}
		return []Cluster{{Representative: 0, Members: members}}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// The leader index
// ---------------------------------------------------------------------------

// Per-column key namespaces. One map per column holds discrete constraints:
// set elements and formatted point/empty-interval values share the "s" space
// because dimOverlap matches a set element against the formatted Lo of a
// zero-length interval; numerically-keyed points get an extra "p" entry so
// that -0 and +0 (distinct strings, equal points) still find each other.
const (
	keySetPrefix   = "s\x00"
	keyPointPrefix = "p\x00"
	keyEmptySet    = "e"
)

type anchorKind int

const (
	anchorNone anchorKind = iota
	anchorSet
	anchorEmptyInterval
	anchorPoint
	anchorInterval
)

type gridIndex struct {
	threshold float64
	s         float64 // 1 − threshold: the factor every column must beat
	byTable   map[string][]int
	elems     map[string]map[string][]int // col -> discrete key -> leaders
	cells     map[string]map[int64][]int  // col -> cell(Lo/width) -> leaders
	flat      map[string][]int            // col -> all proper-interval leaders
	width     map[string]float64          // col -> cell width
}

func newGridIndex(boxes []Box, threshold float64) *gridIndex {
	g := &gridIndex{
		threshold: threshold,
		s:         1 - threshold,
		byTable:   map[string][]int{},
		elems:     map[string]map[string][]int{},
		cells:     map[string]map[int64][]int{},
		flat:      map[string][]int{},
		width:     map[string]float64{},
	}
	// Cell width per column: the median proper-interval length in the
	// input. Any positive width keeps pruning exact; matching the typical
	// constraint size keeps both the cells-per-probe and the
	// leaders-per-cell counts small.
	lengths := map[string][]float64{}
	for _, b := range boxes {
		for col, d := range b.Dims {
			if d.Set != nil {
				continue
			}
			if l := orFull(d.Interval).length(); l > 0 {
				lengths[col] = append(lengths[col], l)
			}
		}
	}
	for col, ls := range lengths {
		sort.Float64s(ls)
		w := ls[len(ls)/2]
		if !(w > 0 && w < math.MaxFloat64) {
			w = 1
		}
		g.width[col] = w
	}
	return g
}

func (g *gridIndex) colWidth(col string) float64 {
	if w, ok := g.width[col]; ok {
		return w
	}
	return 1
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

// pointKey formats a point numerically: −0 folds to +0 so equal points map
// to equal keys.
func pointKey(p float64) string {
	if p == 0 {
		p = 0 // fold −0
	}
	return strconv.FormatFloat(p, 'g', -1, 64)
}

// add indexes the representative of a newly founded cluster.
func (g *gridIndex) add(b Box, ci int) {
	if len(b.Tables) == 0 {
		g.byTable[""] = append(g.byTable[""], ci)
	} else {
		for t := range b.Tables {
			g.byTable[t] = append(g.byTable[t], ci)
		}
	}
	for col, d := range b.Dims {
		em := g.elems[col]
		if em == nil {
			em = map[string][]int{}
			g.elems[col] = em
		}
		if d.Set != nil {
			if len(d.Set) == 0 {
				em[keyEmptySet] = append(em[keyEmptySet], ci)
			}
			for v := range d.Set {
				em[keySetPrefix+v] = append(em[keySetPrefix+v], ci)
			}
			continue
		}
		iv := orFull(d.Interval)
		switch {
		case iv.empty():
			// An empty interval still matches a set containing its
			// formatted Lo (dimOverlap's zero-length branch), so it lives
			// in the "s" space; no interval partner can match it.
			k := keySetPrefix + strconv.FormatFloat(iv.Lo, 'g', -1, 64)
			em[k] = append(em[k], ci)
		case iv.length() == 0:
			k := keySetPrefix + strconv.FormatFloat(iv.Lo, 'g', -1, 64)
			em[k] = append(em[k], ci)
			pk := keyPointPrefix + pointKey(iv.Lo)
			em[pk] = append(em[pk], ci)
		default:
			c := cellOf(iv.Lo, g.colWidth(col))
			cm := g.cells[col]
			if cm == nil {
				cm = map[int64][]int{}
				g.cells[col] = cm
			}
			cm[c] = append(cm[c], ci)
			g.flat[col] = append(g.flat[col], ci)
		}
	}
}

// anchor picks the column of b that prunes best: a column whose factor
// against an unconstrained leader is ≤ s, preferring the probe kinds with
// the cheapest lookups. Returns anchorNone when no column qualifies (then
// the caller falls back to the table index).
func (g *gridIndex) anchor(b Box) (string, Dim, anchorKind) {
	bestKind := anchorNone
	bestCol := ""
	bestDim := Dim{}
	bestSize := math.MaxFloat64
	consider := func(col string, d Dim, kind anchorKind, size float64) {
		if kind == anchorNone {
			return
		}
		better := kind < bestKind || bestKind == anchorNone
		if kind == bestKind {
			better = size < bestSize || (size == bestSize && col < bestCol)
		}
		if better {
			bestKind, bestCol, bestDim, bestSize = kind, col, d, size
		}
	}
	for col, d := range b.Dims {
		if d.Set != nil {
			consider(col, d, anchorSet, float64(len(d.Set)))
			continue
		}
		iv := orFull(d.Interval)
		switch {
		case iv.empty():
			consider(col, d, anchorEmptyInterval, 0)
		case iv.length() == 0:
			consider(col, d, anchorPoint, 0)
		default:
			// A proper interval qualifies only when its factor against
			// the full domain cannot beat s.
			if dimOverlap(d, Dim{Interval: full}) <= g.s {
				consider(col, d, anchorInterval, iv.length())
			}
		}
	}
	return bestCol, bestDim, bestKind
}

// lookup returns the founding-order-sorted cluster indices whose leaders
// could be within threshold of b. The set is a superset of the true
// matches (the caller verifies with Distance) and exact: every leader with
// Overlap(b, leader) > s is included.
func (g *gridIndex) lookup(b Box, out []int, ctr *Counters) []int {
	col, d, kind := g.anchor(b)
	switch kind {
	case anchorNone:
		// No prunable column: any leader sharing a table (or, for a
		// table-less box, any table-less leader) might match.
		if len(b.Tables) == 0 {
			out = append(out, g.byTable[""]...)
		} else {
			for t := range b.Tables {
				out = append(out, g.byTable[t]...)
			}
		}
	case anchorSet:
		em := g.elems[col]
		if len(d.Set) == 0 {
			out = append(out, em[keyEmptySet]...)
		}
		for v := range d.Set {
			out = append(out, em[keySetPrefix+v]...)
		}
	case anchorEmptyInterval:
		iv := orFull(d.Interval)
		out = append(out, g.elems[col][keySetPrefix+strconv.FormatFloat(iv.Lo, 'g', -1, 64)]...)
	case anchorPoint:
		em := g.elems[col]
		iv := orFull(d.Interval)
		out = append(out, em[keySetPrefix+strconv.FormatFloat(iv.Lo, 'g', -1, 64)]...)
		out = append(out, em[keyPointPrefix+pointKey(iv.Lo)]...)
	case anchorInterval:
		iv := orFull(d.Interval)
		flat := g.flat[col]
		probedCells := false
		if g.s > 0 {
			// A leader with factor > s sits within R of b's Lo (hull <
			// inter/s ≤ len(b)/s); the tiny inflation and the ±1 cell
			// absorb floating-point rounding — a superset stays exact.
			r := iv.length() / g.s
			r += r * 1e-9
			w := g.colWidth(col)
			cLo := cellOf(iv.Lo-r, w) - 1
			cHi := cellOf(iv.Lo+r, w) + 1
			if n := cHi - cLo + 1; n > 0 && n <= int64(len(flat)) {
				cm := g.cells[col]
				for c := cLo; c <= cHi; c++ {
					if ctr != nil {
						ctr.CellsProbed++
					}
					out = append(out, cm[c]...)
				}
				probedCells = true
			}
		}
		if !probedCells {
			out = append(out, flat...)
		}
	}
	return sortedUnique(out)
}

// sortedUnique sorts xs ascending and removes duplicates in place.
func sortedUnique(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
