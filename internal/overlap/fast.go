package overlap

import (
	"sqlclean/internal/parallel"
	"sqlclean/internal/skeleton"
)

// The paper observes that the overlap distance "very often yields 0 (queries
// are identical) and 1 (queries do not have any overlap)" (§6.9): real logs
// repeat a few thousand distinct access regions millions of times. The
// clustering path exploits that: each statement's flat box is built once,
// identical boxes are grouped by hash with an exact comparison, leader
// clustering runs over the (few) distinct boxes only, and every member
// inherits its representative's cluster. The result is identical to
// ClusterBoxes for every threshold, because a box that is at distance 0 from
// itself joins the same cluster as every earlier copy of it (the leader
// algorithm assigns each distinct box deterministically), and the one box
// that is not, one with an empty interval, is never grouped.

// ClusterInfos clusters the queries behind infos (a nil summary stands for a
// query that reads no table and constrains no column): ClusterBoxes' exact
// output on their boxes, in near-linear time. Up to workers goroutines build
// the flat boxes; deduplication, the grid over the distinct boxes and the
// member expansion run serially in first-occurrence order. ctr (may be nil)
// counts the grid's work over the distinct boxes; like the clustering, it
// does not depend on workers.
func ClusterInfos(infos []*skeleton.Info, threshold float64, workers int, ctr *Counters) []Cluster {
	boxes := parallel.Map(workers, infos, func(_ int, in *skeleton.Info) FlatBox { return FlatFromInfo(in) })
	return clusterFlat(boxes, threshold, ctr)
}

// ClusterBoxesFastGrid is ClusterInfos for boxes already in map form: it
// converts them to flat boxes (up to workers goroutines) and runs the same
// path, so its output and counters are ClusterInfos'. It keeps its []Box
// signature for callers that build boxes by hand or from FromInfo: the
// benchmarks, the tests and the repository benchmark's stage ledger.
func ClusterBoxesFastGrid(boxes []Box, threshold float64, workers int, ctr *Counters) []Cluster {
	flat := parallel.Map(workers, boxes, func(_ int, b Box) FlatBox { return flatFromBox(b) })
	return clusterFlat(flat, threshold, ctr)
}

// ClusterFlat clusters boxes as given, without the deduplication
// ClusterInfos runs first: ClusterBoxes' exact output on them. It suits
// boxes that are already distinct, such as a BoxSet's.
func ClusterFlat(boxes []FlatBox, threshold float64, ctr *Counters) []Cluster {
	return assemble(gridLabels(boxes, threshold, ctr))
}

// clusterFlat deduplicates boxes, clusters the distinct ones and expands
// the labels back to every input.
func clusterFlat(boxes []FlatBox, threshold float64, ctr *Counters) []Cluster {
	if threshold <= 0 {
		// With a non-positive threshold even identical boxes (distance 0)
		// do not merge, so deduplication would change the result.
		return ClusterFlat(boxes, threshold, ctr)
	}
	var distinct BoxSet
	ids := make([]int32, len(boxes))
	for i := range boxes {
		d := distinct.Find(&boxes[i])
		if d < 0 {
			d = distinct.Add(boxes[i])
		}
		ids[i] = int32(d)
	}
	label, k := gridLabels(distinct.Boxes(), threshold, ctr)
	for i, d := range ids {
		ids[i] = label[d]
	}
	return assemble(ids, k)
}

// assemble turns labels into clusters: label[i] is the founding-order index
// of input i's cluster, k the number of clusters. Members come out in input
// order, so each cluster's first member is its founder; and because a
// cluster founded later has a later founder, founding order is
// representative order. That is the shape ClusterBoxes returns. One backing
// array serves every cluster's member slice.
func assemble(label []int32, k int) []Cluster {
	if k == 0 {
		return nil
	}
	end := make([]int, k)
	for _, c := range label {
		end[c]++
	}
	off := 0
	for c, n := range end {
		end[c] = off
		off += n
	}
	backing := make([]int, len(label))
	for i, c := range label {
		backing[end[c]] = i
		end[c]++
	}
	out := make([]Cluster, k)
	start := 0
	for c := range out {
		m := backing[start:end[c]:end[c]]
		out[c] = Cluster{Representative: m[0], Members: m}
		start = end[c]
	}
	return out
}
