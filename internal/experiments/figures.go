package experiments

import (
	"fmt"
	"sort"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/core"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/sqlast"
)

// runFig2a prints the frequency-by-rank series of the most popular patterns
// before and after cleaning, with antipatterns marked.
func runFig2a(e *env) {
	res := e.result()
	anti := res.AntipatternTemplates()

	fmt.Fprintln(e.w, "Before cleaning (rank, frequency, antipattern?):")
	for i, t := range res.Templates {
		if i >= 30 {
			break
		}
		mark := "pattern"
		if anti[t.Fingerprint] {
			mark = "ANTIPATTERN"
		}
		fmt.Fprintf(e.w, "  %2d %8d %s\n", i+1, t.Frequency, mark)
	}

	parsed, _ := parsedlog.Parse(res.Clean)
	after := pattern.Templates(parsed)
	fmt.Fprintln(e.w, "After cleaning (rank, frequency):")
	for i, t := range after {
		if i >= 30 {
			break
		}
		fmt.Fprintf(e.w, "  %2d %8d\n", i+1, t.Frequency)
	}
	nAntiTop15 := 0
	for i, t := range res.Templates {
		if i >= 15 {
			break
		}
		if anti[t.Fingerprint] {
			nAntiTop15++
		}
	}
	fmt.Fprintf(e.w, "antipatterns among the top-15 patterns before cleaning: %d\n", nAntiTop15)
}

// runFig2b prints frequency vs user popularity for the top patterns.
func runFig2b(e *env) {
	res := e.result()
	fmt.Fprintf(e.w, "%-4s %-9s %-9s\n", "rank", "frequency", "userPop")
	for i, t := range res.Templates {
		if i >= 50 {
			break
		}
		fmt.Fprintf(e.w, "%-4d %-9d %-9d\n", i+1, t.Frequency, t.UserPopularity)
	}
	lowPop := 0
	limit := 40
	if len(res.Templates) < limit {
		limit = len(res.Templates)
	}
	for _, t := range res.Templates[:limit] {
		if t.UserPopularity == 1 {
			lowPop++
		}
	}
	fmt.Fprintf(e.w, "patterns among the top %d run by a single user: %d\n", limit, lowPop)
}

// runFig2c compares pattern frequencies computed with full user/session
// information against the minimal input (timestamps only, §6.8).
func runFig2c(e *env) {
	res := e.result()
	stripped := e.log.StripUsers()
	res2, err := core.Run(stripped, core.Config{})
	if err != nil {
		fatalIn(e, err)
	}
	anti := res.AntipatternTemplates()
	anti2 := res2.AntipatternTemplates()

	bySkel := map[string]int{}
	for _, t := range res2.Templates {
		bySkel[t.Skeleton] = t.Frequency
	}
	fmt.Fprintf(e.w, "%-4s %-11s %-11s %-6s %-6s\n", "rank", "freq w/ FI", "freq w/o FI", "AP w/", "AP w/o")
	for i, t := range res.Templates {
		if i >= 10 {
			break
		}
		m1, m2 := "no", "no"
		if anti[t.Fingerprint] {
			m1 = "yes"
		}
		for _, t2 := range res2.Templates {
			if t2.Skeleton == t.Skeleton && anti2[t2.Fingerprint] {
				m2 = "yes"
			}
		}
		fmt.Fprintf(e.w, "%-4d %-11d %-11d %-6s %-6s\n", i+1, t.Frequency, bySkel[t.Skeleton], m1, m2)
	}
	fmt.Fprintf(e.w, "clean-log size: with info %d, without info %d (diff %.2f%%)\n",
		len(res.Clean), len(res2.Clean),
		100*float64(len(res.Clean)-len(res2.Clean))/float64(len(res.Clean)))
}

// runFig2d aggregates CTH candidates by identity and splits them into true
// and false CTHs using the generator ground truth (the paper used manual
// inspection, §6.6).
func runFig2d(e *env) {
	res := e.result()
	type row struct {
		identity string
		queries  int
		users    map[string]bool
		trueCnt  int
		inst     int
	}
	rows := map[string]*row{}
	for _, in := range res.Instances {
		if in.Kind != antipattern.CTH {
			continue
		}
		r, ok := rows[in.Identity]
		if !ok {
			r = &row{identity: in.Identity, users: map[string]bool{}}
			rows[in.Identity] = r
		}
		r.queries += len(in.Indices)
		r.users[in.User] = true
		r.inst++
		if cthIsTrue(e, in) {
			r.trueCnt++
		}
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].queries != list[j].queries {
			return list[i].queries > list[j].queries
		}
		return list[i].identity < list[j].identity
	})
	fmt.Fprintf(e.w, "%-4s %-9s %-8s %-6s %s\n", "rank", "frequency", "userPop", "real?", "identity")
	for i, r := range list {
		real := "false"
		if r.trueCnt*2 > r.inst {
			real = "TRUE"
		}
		fmt.Fprintf(e.w, "%-4d %-9d %-8d %-6s %s\n", i+1, r.queries, len(r.users), real, truncate(r.identity, 90))
	}
}

// clusterLog parses a log, builds overlap boxes and clusters them.
func clusterLog(l logmodel.Log, threshold float64) (overlap.Stats, time.Duration, []overlap.Cluster, parsedlog.Log) {
	parsed, _ := parsedlog.Parse(l)
	var boxes []overlap.Box
	var kept parsedlog.Log
	// Identical statement texts have identical boxes; build each once.
	boxCache := map[string]overlap.Box{}
	for _, pe := range parsed {
		if pe.Class != sqlast.ClassSelect || pe.Info == nil {
			continue
		}
		b, ok := boxCache[pe.Statement]
		if !ok {
			b = overlap.FromInfo(pe.Info)
			boxCache[pe.Statement] = b
		}
		boxes = append(boxes, b)
		kept = append(kept, pe)
	}
	start := time.Now()
	clusters := overlap.ClusterBoxes(boxes, threshold)
	elapsed := time.Since(start)
	return overlap.Summarize(clusters), elapsed, clusters, kept
}

// runFig3 clusters the raw, clean and removal logs for thresholds 0.1–0.9
// and prints cluster count, average size and runtime.
func runFig3(e *env) {
	res := e.result()
	logs := []struct {
		name string
		l    logmodel.Log
	}{
		{"Raw", res.PreClean},
		{"Cleaning", res.Clean},
		{"Removal", res.Removal},
	}
	fmt.Fprintf(e.w, "%-9s %-10s %-9s %-10s %-10s\n", "log", "threshold", "clusters", "avg size", "runtime")
	for _, lg := range logs {
		for th := 0.1; th < 0.95; th += 0.1 {
			st, elapsed, _, _ := clusterLog(lg.l, th)
			fmt.Fprintf(e.w, "%-9s %-10.1f %-9d %-10.1f %v\n", lg.name, th, st.Count, st.AvgSize, elapsed.Round(time.Millisecond))
		}
	}
}

// runFig4 prints cluster sizes by rank at threshold 0.9 for the three logs,
// plus the DS-cluster comparison of Fig. 4(c): clusters holding DS-Stifle
// statements in the raw log are about twice as big as their counterparts in
// the clean log, where the union query replaces the pieces.
func runFig4(e *env) {
	res := e.result()
	const threshold = 0.9

	for _, lg := range []struct {
		name string
		l    logmodel.Log
	}{{"Raw", res.PreClean}, {"Cleaned", res.Clean}, {"Removal", res.Removal}} {
		st, _, _, _ := clusterLog(lg.l, threshold)
		fmt.Fprintf(e.w, "%s data clusters (rank: size):", lg.name)
		for i, s := range st.Sizes {
			if i >= 20 {
				fmt.Fprintf(e.w, " …(+%d more)", len(st.Sizes)-i)
				break
			}
			fmt.Fprintf(e.w, " %d:%d", i+1, s)
		}
		fmt.Fprintln(e.w)
	}

	// Fig 4(c): sizes of clusters containing DS-Stifle members (raw) vs
	// clusters containing their rewritten statements (clean).
	dsRawStmts := map[string]bool{}
	for _, in := range res.Instances {
		if in.Kind != antipattern.DSStifle {
			continue
		}
		for _, idx := range in.Indices {
			dsRawStmts[res.Parsed[idx].Statement] = true
		}
	}
	dsCleanStmts := map[string]bool{}
	for _, r := range res.Replacements {
		if r.Kind == antipattern.DSStifle {
			dsCleanStmts[r.Statement] = true
		}
	}
	rawSizes := dsClusterSizes(res.PreClean, threshold, dsRawStmts)
	cleanSizes := dsClusterSizes(res.Clean, threshold, dsCleanStmts)
	fmt.Fprintf(e.w, "%-4s %-18s %-18s\n", "rank", "DS cluster (clean)", "DS cluster (raw)")
	for i := 0; i < 20 && (i < len(rawSizes) || i < len(cleanSizes)); i++ {
		c, r := "-", "-"
		if i < len(cleanSizes) {
			c = fmt.Sprint(cleanSizes[i])
		}
		if i < len(rawSizes) {
			r = fmt.Sprint(rawSizes[i])
		}
		fmt.Fprintf(e.w, "%-4d %-18s %-18s\n", i+1, c, r)
	}
}

// dsClusterSizes returns the descending sizes of clusters that contain at
// least one of the marked statements.
func dsClusterSizes(l logmodel.Log, threshold float64, marked map[string]bool) []int {
	_, _, clusters, kept := clusterLog(l, threshold)
	var sizes []int
	for _, c := range clusters {
		has := false
		for _, m := range c.Members {
			if marked[kept[m].Statement] {
				has = true
				break
			}
		}
		if has {
			sizes = append(sizes, c.Size())
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// runCTHSamples reproduces the §6.6 inspection of Tables 9 and 10: for each
// of a handful of CTH candidate instances, print the statements with their
// timestamps and the head→follower time gap. The paper's judgment
// heuristic: followers firing instantly after the head indicate programmatic
// dependency (a real CTH); a reflective pause indicates a human choosing
// freely (a false candidate).
func runCTHSamples(e *env) {
	res := e.result()
	type sample struct {
		in  antipattern.Instance
		gap time.Duration
	}
	var instant, paused *sample
	for _, in := range res.Instances {
		if in.Kind != antipattern.CTH || len(in.Indices) < 2 {
			continue
		}
		head := res.Parsed[in.Indices[0]]
		first := res.Parsed[in.Indices[1]]
		s := &sample{in: in, gap: first.Time.Sub(head.Time)}
		if s.gap < time.Second {
			if instant == nil {
				instant = s
			}
		} else if paused == nil {
			paused = s
		}
		if instant != nil && paused != nil {
			break
		}
	}
	show := func(name string, s *sample, verdict string) {
		if s == nil {
			fmt.Fprintf(e.w, "%s: (no such candidate in this workload)\n", name)
			return
		}
		fmt.Fprintf(e.w, "%s (head→follower gap %v → %s):\n", name, s.gap.Round(time.Millisecond), verdict)
		for i, idx := range s.in.Indices {
			if i >= 3 {
				fmt.Fprintf(e.w, "  … (+%d more followers)\n", len(s.in.Indices)-i)
				break
			}
			pe := res.Parsed[idx]
			fmt.Fprintf(e.w, "  %s  %s\n", pe.Time.Format("02.01.06 15:04:05.000"), truncate(pe.Statement, 90))
		}
	}
	show("Candidate A, instant follow-up (cf. paper Table 10)", instant, "likely a real CTH")
	show("Candidate B, reflective pause (cf. paper Table 9)", paused, "likely a user choosing freely")
}
