// The /clusters surface: the daemon keeps a bounded registry of the
// distinct predicate boxes it has cleaned (updated as sessions close, so it
// costs one flat box and one hash lookup per emitted entry — the statements
// themselves are parse-cache hits) and clusters them on demand with the
// exact grid path. The registry stores flat boxes under their hashes, so a
// read clusters them as they are, with no conversion or re-keying.
// This is the §6.9 user-interest view, live: which regions of the data
// space the traffic touches, and how many queries share each region.
//
// The registry is split by shard, as the engine is: an emitted entry goes to
// its user's shard's registry, so each registry sees its shard's emissions
// in the order the shard made them, whatever the other drains do. A read
// merges the registries in shard order, so /clusters depends only on the
// input, at any shard count.
package server

import (
	"net/http"
	"strconv"
	"sync"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/overlap"
)

const (
	defaultClusterThreshold = 0.9
	defaultClusterMaxBoxes  = 4096
)

// boxRegistry accumulates one shard's distinct predicate boxes with
// occurrence counts. Memory is bounded: once maxBoxes distinct boxes exist,
// new distinct boxes are counted as dropped instead of stored (queries
// matching an already-known box still count normally).
type boxRegistry struct {
	mu       sync.Mutex
	maxBoxes int
	boxes    overlap.BoxSet
	counts   []int64
	examples []string
	total    int64 // queries observed, including ones hitting dropped boxes
	dropped  int64 // queries whose box was not stored because the registry was full
}

// newBoxRegistries splits a bound of maxBoxes distinct boxes (0 selects
// 4096) over one registry per shard: each gets ⌊maxBoxes/shards⌋ and the
// first maxBoxes mod shards one more, so no registry holds more than
// ⌈maxBoxes/shards⌉ and together they hold at most maxBoxes.
func newBoxRegistries(maxBoxes, shards int) []*boxRegistry {
	if maxBoxes <= 0 {
		maxBoxes = defaultClusterMaxBoxes
	}
	regs := make([]*boxRegistry, shards)
	for i := range regs {
		regs[i] = &boxRegistry{maxBoxes: maxBoxes / shards}
		if i < maxBoxes%shards {
			regs[i].maxBoxes++
		}
	}
	return regs
}

// observeBoxes folds one cleaned batch into the registries, each entry into
// its user's shard's. Statements were just parsed by the engine, so the
// shared parser resolves each from cache.
func (s *Server) observeBoxes(l logmodel.Log) {
	p := s.cfg.Stream.Parser
	for _, e := range l {
		pe := p.ParseEntry(e)
		if pe.Info == nil {
			continue
		}
		b := overlap.FlatFromInfo(pe.Info)
		r := s.boxes[s.eng.ShardFor(e.User)]
		r.mu.Lock()
		r.total++
		di := r.boxes.Find(&b)
		if di < 0 && r.boxes.Len() >= r.maxBoxes {
			r.dropped++
			s.mBoxesDropped.Inc()
		} else {
			if di < 0 {
				di = r.boxes.Add(b)
				r.counts = append(r.counts, 0)
				r.examples = append(r.examples, pe.Statement)
				s.gDistinctBoxes.Add(1)
			}
			r.counts[di]++
		}
		r.mu.Unlock()
	}
}

// snapshotBoxes merges the registries in shard order into one box list for
// lock-free clustering: a box stored by several shards appears once, with
// their counts summed and the first shard's example.
func (s *Server) snapshotBoxes() (boxes []overlap.FlatBox, counts []int64, examples []string, total, dropped int64) {
	var set overlap.BoxSet
	for _, r := range s.boxes {
		r.mu.Lock()
		for i, b := range r.boxes.Boxes() {
			di := set.Find(&b)
			if di < 0 {
				di = set.Add(b)
				counts = append(counts, 0)
				examples = append(examples, r.examples[i])
			}
			counts[di] += r.counts[i]
		}
		total += r.total
		dropped += r.dropped
		r.mu.Unlock()
	}
	return set.Boxes(), counts, examples, total, dropped
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
	// DroppedBoxes counts distinct boxes beyond the registry bound; when
	// non-zero the clustering covers a prefix of the distinct traffic.
	DroppedBoxes int64   `json:"dropped_boxes,omitempty"`
	ClusterCount int     `json:"cluster_count"`
	AvgSize      float64 `json:"avg_size"`
	// Grid work counters for this clustering call.
	Comparisons        int64 `json:"comparisons"`
	ComparisonsAvoided int64 `json:"comparisons_avoided"`
	CellsProbed        int64 `json:"cells_probed"`
	// Clusters are the top clusters by observed query count.
	Clusters []ClusterInfo `json:"clusters,omitempty"`
}

// Clusters clusters the observed distinct boxes at the given threshold and
// returns the top clusters by query weight. Safe to call while ingestion
// runs.
func (s *Server) Clusters(threshold float64, top int) ClustersPayload {
	if threshold <= 0 {
		threshold = s.clusterThreshold()
	}
	if top <= 0 {
		top = 20
	}
	boxes, counts, examples, total, dropped := s.snapshotBoxes()

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
		DroppedBoxes:       dropped,
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
			q += counts[m]
		}
		infos[i] = ClusterInfo{Size: c.Size(), Queries: q, Example: examples[c.Representative]}
	}
	// Partial selection sort: top is small and the list is rebuilt per
	// request, so O(top·n) beats pulling in a heap.
	for i := 0; i < len(infos) && i < top; i++ {
		best := i
		for j := i + 1; j < len(infos); j++ {
			if infos[j].Queries > infos[best].Queries {
				best = j
			}
		}
		infos[i], infos[best] = infos[best], infos[i]
	}
	if len(infos) > top {
		infos = infos[:top]
	}
	p.Clusters = infos
	return p
}

// validThreshold reports whether f is a usable overlap-distance threshold:
// one in (0, 1]. Written so that NaN fails it too.
func validThreshold(f float64) bool { return f > 0 && f <= 1 }

func (s *Server) clusterThreshold() float64 {
	if s.cfg.ClusterThreshold > 0 {
		return s.cfg.ClusterThreshold
	}
	return defaultClusterThreshold
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if s.boxes == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "clustering disabled"})
		return
	}
	threshold := 0.0
	if v := r.URL.Query().Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !validThreshold(f) {
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
