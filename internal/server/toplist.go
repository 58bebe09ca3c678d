package server

import (
	"net/http"
	"sort"
	"strconv"
)

// GET /toplist serves the k most frequent query templates, read from the
// engine's exact template table, plus the distinct-user count — the
// daemon's answer to "what dominates this log right now" without the full
// /report.

// ToplistPayload is the GET /toplist document.
type ToplistPayload struct {
	// K echoes the request's ?k= (0 = every template).
	K int `json:"k"`
	// Tracked is the number of distinct templates the engine has seen.
	Tracked int `json:"tracked_templates"`
	// ObservedQueries is the number of accepted SELECTs, the sum of every
	// template's count (stream.selects in /report).
	ObservedQueries int64 `json:"observed_queries"`
	// DistinctUsersEstimate is the exact distinct-user count, /report's
	// report.distinct_users.
	DistinctUsersEstimate int64 `json:"distinct_users_estimate"`
	// Entries are the top k templates, count-descending with
	// fingerprint-ascending ties.
	Entries []ToplistEntry `json:"entries"`
}

// ToplistEntry is one template and its exact occurrence count.
type ToplistEntry struct {
	Fingerprint uint64 `json:"fingerprint"`
	Skeleton    string `json:"skeleton"`
	Count       int64  `json:"count"`
}

// Toplist assembles the payload from the engine's template table, read
// count-only: the payload carries no WHERE-clause figures.
func (s *Server) Toplist(k int) ToplistPayload {
	templates := s.eng.TemplateCounts()
	p := ToplistPayload{
		K:                     k,
		Tracked:               len(templates),
		DistinctUsersEstimate: int64(s.eng.DistinctUsers()),
		Entries:               make([]ToplistEntry, len(templates)),
	}
	for i, t := range templates {
		p.ObservedQueries += int64(t.Frequency)
		p.Entries[i] = ToplistEntry{Fingerprint: t.Fingerprint, Skeleton: t.Skeleton, Count: int64(t.Frequency)}
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		a, b := p.Entries[i], p.Entries[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Fingerprint < b.Fingerprint
	})
	if k > 0 && k < len(p.Entries) {
		p.Entries = p.Entries[:k]
	}
	return p
}

func (s *Server) handleToplist(w http.ResponseWriter, r *http.Request) {
	k := 0
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "k must be a non-negative integer"})
			return
		}
		k = n
	}
	writeJSON(w, http.StatusOK, s.Toplist(k))
}
