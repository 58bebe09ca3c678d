// GET /history — template trend queries over the columnar retention store.
// The live engine answers "what does this template look like now"; /history
// answers "how did its volume and verdicts evolve", long after the journal
// segments that carried the traffic are gone. The whole query runs on block
// indexes plus the time and template-ID columns: no statement, user or
// parameter bytes are ever materialized.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sqlclean/internal/colstore"
)

// maxHistoryWindows bounds one response; a range/step pair that exceeds it
// is a client error, not a reason to allocate without bound.
const maxHistoryWindows = 4096

// HistoryWindow is one time bucket of a trend query.
type HistoryWindow struct {
	Start time.Time `json:"start"`
	Count int       `json:"count"`
}

// HistoryPayload is the GET /history document.
type HistoryPayload struct {
	// Template echoes the queried engine fingerprint (0 = all templates).
	Template uint64    `json:"template,omitempty"`
	From     time.Time `json:"from"`
	To       time.Time `json:"to"`
	Step     string    `json:"step"`
	// Verdicts is the union of antipattern verdicts stamped on the matching
	// templates at compaction time.
	Verdicts []string `json:"verdicts,omitempty"`
	// Entries is the total count across windows.
	Entries int `json:"entries"`
	// BlocksScanned/BlocksPruned report the index pruning: pruned blocks
	// were rejected on their min/max time or template index alone.
	BlocksScanned int `json:"blocks_scanned"`
	BlocksPruned  int `json:"blocks_pruned"`
	// Windows are the non-empty buckets, ascending by start time.
	Windows []HistoryWindow `json:"windows"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "retention disabled (start with -retain)"})
		return
	}
	q := r.URL.Query()

	var template uint64
	if v := q.Get("template"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("template must be a decimal fingerprint, got %q", v)})
			return
		}
		template = n
	}
	parseTime := func(key string) (time.Time, bool) {
		v := q.Get(key)
		if v == "" {
			return time.Time{}, true
		}
		for _, f := range timeFormats {
			if t, err := time.Parse(f, v); err == nil {
				return t, true
			}
		}
		return time.Time{}, false
	}
	from, ok := parseTime("from")
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad from time %q", q.Get("from"))})
		return
	}
	to, ok := parseTime("to")
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad to time %q", q.Get("to"))})
		return
	}
	if !from.IsZero() && !to.IsZero() && to.Before(from) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "to is before from"})
		return
	}
	step := time.Hour
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("step must be a positive duration, got %q", v)})
			return
		}
		step = d
	}

	p, err := s.history(template, from, to, step)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// history runs one trend query against the retention store.
func (s *Server) history(template uint64, from, to time.Time, step time.Duration) (HistoryPayload, error) {
	p := HistoryPayload{Template: template, Step: step.String()}
	blocks, err := s.store.Reader().Blocks()
	if err != nil {
		// Blocks skips corrupt files and still returns the readable ones;
		// a trend over the surviving history beats a 500.
		s.log.Warn("history: skipping corrupt block", "component", "server", "error", err)
	}

	opts := colstore.ScanOptions{From: from, To: to}
	if template != 0 {
		opts.Templates = map[uint64]bool{template: true}
	}
	type matched struct {
		b     *colstore.Block
		match []bool
	}
	var work []matched
	verdicts := map[string]struct{}{}
	for _, b := range blocks {
		match := opts.Match(b)
		if match == nil {
			p.BlocksPruned++
			continue
		}
		for ti, ok := range match {
			if !ok {
				continue
			}
			for _, v := range b.Templates[ti].Verdicts {
				verdicts[v] = struct{}{}
			}
		}
		work = append(work, matched{b: b, match: match})
	}
	p.BlocksScanned = len(work)
	for v := range verdicts {
		p.Verdicts = append(p.Verdicts, v)
	}
	sort.Strings(p.Verdicts)

	// The window origin: an explicit from, else the earliest matching data;
	// likewise for the end.
	origin, end := from, to
	for _, m := range work {
		if from.IsZero() && (origin.IsZero() || m.b.Meta.MinTime.Before(origin)) {
			origin = m.b.Meta.MinTime
		}
		if to.IsZero() && (end.IsZero() || m.b.Meta.MaxTime.After(end)) {
			end = m.b.Meta.MaxTime
		}
	}
	p.From, p.To = origin, end
	if len(work) == 0 {
		return p, nil
	}
	if n := end.Sub(origin)/step + 1; n > maxHistoryWindows {
		return p, fmt.Errorf("range/step yields %d windows (max %d); widen step or narrow the range", n, maxHistoryWindows)
	}

	counts := map[int64]int{} // window index → count
	for _, m := range work {
		timesNS, tids, err := m.b.LoadColumns()
		if err != nil {
			s.log.Warn("history: bad block columns", "component", "server",
				"block", m.b.Meta.Path, "error", err)
			continue
		}
		originNS := origin.UnixNano()
		fromNS, toNS := int64(0), int64(0)
		if !from.IsZero() {
			fromNS = from.UnixNano()
		}
		if !to.IsZero() {
			toNS = to.UnixNano()
		}
		for i, ns := range timesNS {
			if !m.match[tids[i]] {
				continue
			}
			if fromNS != 0 && ns < fromNS {
				continue
			}
			if toNS != 0 && ns > toNS {
				continue
			}
			counts[(ns-originNS)/int64(step)]++
			p.Entries++
		}
	}
	idxs := make([]int64, 0, len(counts))
	for i := range counts {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		p.Windows = append(p.Windows, HistoryWindow{
			Start: origin.Add(time.Duration(i) * step),
			Count: counts[i],
		})
	}
	return p, nil
}
