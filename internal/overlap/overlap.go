// Package overlap reproduces the downstream analysis of the paper's §6.9:
// the user-interest clustering of Nguyen et al. [1]. Each query is reduced
// to the region of the data space it accesses — per-column intervals or
// value sets derived from its WHERE clause plus the set of tables it reads —
// and two queries are clustered together when the overlap of their regions
// exceeds a threshold. The paper observed that the distance is almost always
// 0 (identical regions) or 1 (disjoint regions); the box model reproduces
// exactly that behaviour.
package overlap

import (
	"math"
	"slices"
	"sort"
	"strconv"
)

// Interval is a numeric range; Lo > Hi encodes the empty interval.
type Interval struct {
	Lo, Hi float64
}

// full is the clamped "whole domain" used for unbounded predicates.
var full = Interval{Lo: -1e12, Hi: 1e12}

func (iv Interval) empty() bool { return iv.Lo > iv.Hi }

func (iv Interval) length() float64 {
	if iv.empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

func intersect(a, b Interval) Interval {
	return Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi)}
}

func hull(a, b Interval) Interval {
	return Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi)}
}

// Dim constrains one column: either a numeric interval or a discrete value
// set (string equality / IN lists).
type Dim struct {
	Interval Interval
	Set      map[string]bool // non-nil for discrete constraints
}

// Box is the accessed region of one query in map form: what the
// ClusterBoxes oracle, Overlap and Distance read, and what callers build by
// hand. The clustering path works on FlatBox, built by FlatFromInfo.
type Box struct {
	// Tables are the lower-cased base tables the query reads. Queries over
	// disjoint table sets never overlap.
	Tables map[string]bool
	// Dims maps lower-cased column names to their constraint.
	Dims map[string]Dim
}

func orFull(iv Interval) Interval {
	if iv == (Interval{}) {
		return full
	}
	return iv
}

// Overlap returns the overlap of two boxes in [0, 1]: the product over the
// union of constrained columns of per-dimension intersection-over-union.
// Disjoint table sets yield 0; identical constraints yield 1. The factors
// are multiplied in ascending column-name order, the clustering path's
// order: float products depend on their order, and map iteration has none.
func Overlap(a, b Box) float64 {
	shared := false
	for t := range a.Tables {
		if b.Tables[t] {
			shared = true
			break
		}
	}
	if !shared && (len(a.Tables) > 0 || len(b.Tables) > 0) {
		return 0
	}
	cols := make([]string, 0, len(a.Dims)+len(b.Dims))
	for c := range a.Dims {
		cols = append(cols, c)
	}
	for c := range b.Dims {
		if _, ok := a.Dims[c]; !ok {
			cols = append(cols, c)
		}
	}
	slices.Sort(cols)
	ratio := 1.0
	for _, c := range cols {
		da, okA := a.Dims[c]
		db, okB := b.Dims[c]
		if !okA {
			da = Dim{Interval: full}
		}
		if !okB {
			db = Dim{Interval: full}
		}
		ratio *= dimOverlap(da, db)
		if ratio == 0 {
			return 0
		}
	}
	return ratio
}

func dimOverlap(a, b Dim) float64 {
	if a.Set != nil && b.Set != nil {
		inter, union := 0, len(a.Set)
		for k := range b.Set {
			if a.Set[k] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}
	if a.Set != nil || b.Set != nil {
		// A value set against an interval: overlap is the fraction of set
		// members inside the interval, damped by the interval's size; the
		// paper's observation that mixed constraints rarely overlap is
		// preserved by returning 0 unless both are points.
		sa, iv := a, orFull(b.Interval)
		if b.Set != nil {
			sa, iv = b, orFull(a.Interval)
		}
		if iv.length() == 0 {
			// Point interval vs set: overlap 1/|set| when the point is in
			// the set.
			if sa.Set[strconv.FormatFloat(iv.Lo, 'g', -1, 64)] {
				return 1 / float64(len(sa.Set))
			}
		}
		return 0
	}
	ia, ib := orFull(a.Interval), orFull(b.Interval)
	inter := intersect(ia, ib)
	if inter.empty() {
		return 0
	}
	u := hull(ia, ib).length()
	if u == 0 {
		return 1 // both are the same point
	}
	if inter.length() == 0 {
		// Point inside a wider interval: infinitesimal overlap.
		return 0
	}
	return inter.length() / u
}

// Distance is 1 − Overlap.
func Distance(a, b Box) float64 { return 1 - Overlap(a, b) }

// ---------------------------------------------------------------------------
// Threshold clustering
// ---------------------------------------------------------------------------

// Cluster is one group of queries; Members are indices into the clustered
// slice.
type Cluster struct {
	// Representative is the index of the first member (the leader).
	Representative int
	Members        []int
}

// Size returns the number of members.
func (c Cluster) Size() int { return len(c.Members) }

// ClusterBoxes runs leader clustering: each box joins the first cluster
// whose representative is at distance below threshold, or founds a new
// cluster. Worst case O(n·k) with k clusters — the O(n²) regime the paper's
// runtime plot shows.
func ClusterBoxes(boxes []Box, threshold float64) []Cluster {
	var clusters []Cluster
	for i, b := range boxes {
		placed := false
		for ci := range clusters {
			rep := boxes[clusters[ci].Representative]
			if Distance(b, rep) < threshold {
				clusters[ci].Members = append(clusters[ci].Members, i)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, Cluster{Representative: i, Members: []int{i}})
		}
	}
	return clusters
}

// Stats summarizes a clustering.
type Stats struct {
	Count   int
	AvgSize float64
	// Sizes are the cluster sizes in descending order (Fig. 4's rank
	// plots).
	Sizes []int
}

// Summarize computes clustering statistics.
func Summarize(clusters []Cluster) Stats {
	st := Stats{Count: len(clusters)}
	total := 0
	for _, c := range clusters {
		total += c.Size()
		st.Sizes = append(st.Sizes, c.Size())
	}
	if st.Count > 0 {
		st.AvgSize = float64(total) / float64(st.Count)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(st.Sizes)))
	return st
}
