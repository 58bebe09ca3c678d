// The /clusters surface: the daemon keeps one table of the distinct
// predicate boxes of the clean log it has emitted, and clusters them on
// demand with the exact grid path. This is the §6.9 user-interest view,
// live: which regions of the data space the clean traffic touches, and how
// many queries share each region.
//
// For each distinct box the table keeps its query count and its first
// occurrence: the earliest emitted entry with that box by (Time, Seq), the
// order every pipeline stage assumes, whose statement is the box's example.
// A read clusters the boxes in first-occurrence order, the order in which
// batch clustering meets them in the time-sorted clean log, so /clusters
// equals overlap.ClusterInfos over core.Run's clean log whatever the shard
// count, the drains' interleaving or the request sizes. The table has no
// cap: it grows with the distinct boxes, not with the log. It is not part
// of a snapshot, so after a restart it covers the entries emitted since,
// the sessions that journal replay re-emits included.
package server

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
)

// defaultClusterThreshold is the paper's operating point, what /clusters
// uses without ?threshold=.
const defaultClusterThreshold = 0.9

// boxTable holds the distinct boxes of the emitted clean log, each with its
// record at the same index.
type boxTable struct {
	mu    sync.Mutex
	boxes overlap.BoxSet
	stats []boxStat
}

// boxStat is one distinct box's record: how many emitted entries have the
// box, and the earliest of them by (Time, Seq), whose statement is the
// box's example.
type boxStat struct {
	queries int64
	time    time.Time
	seq     int64
	example string
}

// compare orders records by first occurrence.
func (b *boxStat) compare(o *boxStat) int {
	if c := b.time.Compare(o.time); c != 0 {
		return c
	}
	return cmp.Compare(b.seq, o.seq)
}

// observeBoxes folds one emitted batch into the table. The engine hands
// over each entry's summary, so nothing is parsed here; box building
// happens before the table's lock, which is taken once per batch.
func (s *Server) observeBoxes(l parsedlog.Log) {
	boxes := make([]overlap.FlatBox, 0, len(l))
	stats := make([]boxStat, 0, len(l))
	for _, pe := range l {
		if pe.Info == nil {
			continue
		}
		boxes = append(boxes, overlap.FlatFromInfo(pe.Info))
		stats = append(stats, boxStat{queries: 1, time: pe.Time, seq: pe.Seq, example: pe.Statement})
	}
	t := s.boxes
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range boxes {
		d := t.boxes.Find(&boxes[i])
		if d < 0 {
			t.boxes.Add(boxes[i])
			t.stats = append(t.stats, stats[i])
			s.gDistinctBoxes.Add(1)
			continue
		}
		st := &t.stats[d]
		st.queries++
		if stats[i].compare(st) < 0 {
			st.time, st.seq, st.example = stats[i].time, stats[i].seq, stats[i].example
		}
	}
}

// ClusterInfo is one cluster in the /clusters response.
type ClusterInfo struct {
	// Size is the number of distinct boxes in the cluster.
	Size int `json:"size"`
	// Queries is the number of observed queries across those boxes.
	Queries int64 `json:"queries"`
	// Example is a statement whose box is the cluster's representative.
	Example string `json:"example"`
}

// ClustersPayload is the GET /clusters document.
type ClustersPayload struct {
	Threshold     float64 `json:"threshold"`
	DistinctBoxes int     `json:"distinct_boxes"`
	TotalQueries  int64   `json:"total_queries"`
	ClusterCount  int     `json:"cluster_count"`
	AvgSize       float64 `json:"avg_size"`
	// Grid work counters for this clustering call.
	Comparisons        int64 `json:"comparisons"`
	ComparisonsAvoided int64 `json:"comparisons_avoided"`
	CellsProbed        int64 `json:"cells_probed"`
	// Clusters are the top clusters by observed query count, ties in the
	// order the clusters were founded.
	Clusters []ClusterInfo `json:"clusters,omitempty"`
}

// Clusters clusters the observed distinct boxes at the given threshold and
// returns the top clusters by query weight; with Config.ClustersDisabled
// the payload is empty. Safe to call while ingestion runs.
func (s *Server) Clusters(threshold float64, top int) ClustersPayload {
	if threshold <= 0 {
		threshold = defaultClusterThreshold
	}
	if top <= 0 {
		top = 20
	}
	if s.boxes == nil {
		return ClustersPayload{Threshold: threshold}
	}
	// Boxes are never modified once stored, so only the records, which
	// later batches update, are copied under the lock.
	t := s.boxes
	t.mu.Lock()
	stored := t.boxes.Boxes()
	stats := slices.Clone(t.stats)
	t.mu.Unlock()
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return stats[a].compare(&stats[b]) })
	boxes := make([]overlap.FlatBox, len(order))
	var total int64
	for i, k := range order {
		boxes[i] = stored[k]
		total += stats[k].queries
	}

	var ctr overlap.Counters
	clusters := overlap.ClusterFlat(boxes, threshold, &ctr)
	st := overlap.Summarize(clusters)

	s.mBoxesClustered.Add(ctr.Boxes)
	s.mClusterCells.Add(ctr.CellsProbed)
	s.mClusterAvoided.Add(ctr.Avoided())

	p := ClustersPayload{
		Threshold:          threshold,
		DistinctBoxes:      len(boxes),
		TotalQueries:       total,
		ClusterCount:       st.Count,
		AvgSize:            st.AvgSize,
		Comparisons:        ctr.Comparisons,
		ComparisonsAvoided: ctr.Avoided(),
		CellsProbed:        ctr.CellsProbed,
	}
	infos := make([]ClusterInfo, len(clusters))
	for i, c := range clusters {
		var q int64
		for _, m := range c.Members {
			q += stats[order[m]].queries
		}
		infos[i] = ClusterInfo{Size: c.Size(), Queries: q, Example: stats[order[c.Representative]].example}
	}
	// Heaviest first; clusters of equal weight stay in founding order.
	slices.SortStableFunc(infos, func(a, b ClusterInfo) int { return cmp.Compare(b.Queries, a.Queries) })
	if len(infos) > top {
		infos = infos[:top]
	}
	p.Clusters = infos
	return p
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if s.boxes == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "clustering disabled"})
		return
	}
	threshold := 0.0
	if v := r.URL.Query().Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 1) { // written so that NaN fails too
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "threshold must be in (0, 1]"})
			return
		}
		threshold = f
	}
	top, err := parseTop(r, 0) // 0: Clusters applies its own default
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.Clusters(threshold, top))
}
