package overlap

import (
	"sort"
	"strconv"
	"strings"

	"sqlclean/internal/parallel"
)

// The paper observes that the overlap distance "very often yields 0 (queries
// are identical) and 1 (queries do not have any overlap)" (§6.9): real logs
// repeat a few thousand distinct access regions millions of times. The fast
// clustering path exploits that: identical boxes are grouped by a canonical
// signature first, leader clustering runs over the (few) distinct boxes
// only, and every member inherits its representative's cluster. The result
// is identical to ClusterBoxes for every threshold, because a box that is at
// distance 0 from itself joins the same cluster as every earlier copy of it
// (the leader algorithm assigns each distinct box deterministically), and
// the one box that is not, one with an empty interval, is never grouped.

// Signature canonically encodes a box: identical boxes — and only identical
// boxes — share a signature. Callers use it to deduplicate boxes before
// clustering (the server's box registry does this at ingest time).
func Signature(b Box) string { return signature(b) }

// signature canonically encodes a box: sorted tables, then sorted dims.
func signature(b Box) string {
	var sb strings.Builder
	tables := make([]string, 0, len(b.Tables))
	for t := range b.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		sb.WriteString(t)
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	cols := make([]string, 0, len(b.Dims))
	for c := range b.Dims {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		d := b.Dims[c]
		sb.WriteString(c)
		sb.WriteByte('=')
		if d.Set != nil {
			vals := make([]string, 0, len(d.Set))
			for v := range d.Set {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			sb.WriteString(strings.Join(vals, "\x02"))
		} else {
			sb.WriteString(strconv.FormatFloat(d.Interval.Lo, 'g', -1, 64))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatFloat(d.Interval.Hi, 'g', -1, 64))
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// ClusterBoxesFastGrid is the clustering path: ClusterBoxes' exact output
// (same leaders, same membership, same order) for every threshold and
// worker count, in near-linear time. It composes two levers. Signature
// dedup shrinks n to the distinct boxes: up to `workers` goroutines compute
// the per-box keys, and everything after runs serially in first-occurrence
// order. Grid pruning then removes the quadratic leader scan over the
// distinct boxes. ctr (may be nil) counts the grid's work over the distinct
// boxes; like the clustering, it does not depend on workers.
func ClusterBoxesFastGrid(boxes []Box, threshold float64, workers int, ctr *Counters) []Cluster {
	if threshold <= 0 {
		// With a non-positive threshold even identical boxes (distance 0)
		// do not merge, so deduplication would change the result.
		return clusterGrid(boxes, threshold, ctr)
	}
	keys := parallel.Map(workers, boxes, func(_ int, b Box) string { return dedupKey(b) })
	distinct, members := dedupBoxes(boxes, keys)
	return expandClusters(clusterGrid(distinct, threshold, ctr), members, len(boxes))
}

// dedupKey is the key ClusterBoxesFastGrid groups a box by: its signature,
// or "" when the box is not at distance 0 from itself. An empty interval
// (a contradictory range such as x > 5 AND x < 3) overlaps nothing, not
// even its own copy, so the leader scan never merges two copies of such a
// box and neither may the dedup.
func dedupKey(b Box) string {
	for _, d := range b.Dims {
		if dimOverlap(d, d) != 1 {
			return ""
		}
	}
	return signature(b)
}

// dedupBoxes groups input indices by key (keys[i] is boxes[i]'s; "" never
// groups), keeping first-occurrence order: distinct[i] is the first box with
// its key, members[i] the input indices sharing it (ascending).
func dedupBoxes(boxes []Box, keys []string) (distinct []Box, members [][]int) {
	byKey := map[string]int{} // key -> distinct index
	for i, k := range keys {
		di, ok := byKey[k]
		if !ok {
			di = len(distinct)
			if k != "" {
				byKey[k] = di
			}
			distinct = append(distinct, boxes[i])
			members = append(members, nil)
		}
		members[di] = append(members[di], i)
	}
	return distinct, members
}

// expandClusters maps a clustering of distinct boxes back to original
// indices. Cluster and member order must match what ClusterBoxes would
// produce on the full input: clusters are founded by first occurrence, and
// within a cluster the original indices appear in input order. One backing
// array serves every cluster's member slice: total membership is exactly n,
// so a single allocation replaces the per-cluster append-growth (which
// reallocated log₂(size) times per cluster).
func expandClusters(distinctClusters []Cluster, members [][]int, n int) []Cluster {
	out := make([]Cluster, len(distinctClusters))
	backing := make([]int, 0, n)
	for ci, dc := range distinctClusters {
		start := len(backing)
		for _, di := range dc.Members {
			backing = append(backing, members[di]...)
		}
		all := backing[start:len(backing):len(backing)]
		sort.Ints(all)
		out[ci] = Cluster{Representative: all[0], Members: all}
	}
	// Clusters themselves ordered by their representative (first founder).
	sort.Slice(out, func(i, j int) bool { return out[i].Representative < out[j].Representative })
	return out
}
