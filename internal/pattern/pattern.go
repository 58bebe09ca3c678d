// Package pattern mines query templates and patterns from a parsed query
// log: template occurrence statistics (frequency and userPopularity,
// Definitions 9–10), multi-template sequence patterns, and the
// sliding-window-search (SWS) classification of §6.5.
package pattern

import (
	"sort"
	"strconv"
	"sync"

	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/session"
	"sqlclean/internal/sqlast"
)

// TemplateStats aggregates all occurrences of one query template
// (Definition 4: the triple of clause skeletons).
type TemplateStats struct {
	Fingerprint uint64
	// Skeleton is the full skeleton-query text (all clauses, masked).
	Skeleton      string
	SFC, SWC, SSC string
	// Frequency is the occurrence count (Definition 9 at template
	// granularity: every occurrence is an instance of the length-1
	// pattern).
	Frequency int
	// UserPopularity is the number of distinct users (IPs) that issued the
	// template (Definition 10).
	UserPopularity int
	// DistinctWhere is the number of distinct concrete WHERE clauses among
	// the occurrences. DistinctWhere close to Frequency means the
	// occurrences sweep disjoint filter values — the SWS signature.
	DistinctWhere int
	// Example is one concrete statement text.
	Example string
}

// DisjointRatio is DistinctWhere / Frequency; 1.0 means every occurrence
// filtered a different region.
func (t TemplateStats) DisjointRatio() float64 {
	if t.Frequency == 0 {
		return 0
	}
	return float64(t.DistinctWhere) / float64(t.Frequency)
}

// tmplAgg is the per-template accumulator. The distinct-user and
// distinct-WHERE sets are not maps but append-only slices with a
// consecutive-repeat filter, sorted and deduplicated once at finalize:
// template aggregation is the hottest loop of the mining stage and the
// per-occurrence map inserts (two hashed writes per entry) dominated its
// allocation profile. firstIdx is the log index of the template's first
// occurrence — the key that makes the parallel merge deterministic.
type tmplAgg struct {
	stats    TemplateStats
	firstIdx int
	users    []string
	wcs      []uint64
}

// observe folds one occurrence into the aggregate. The last-element checks
// skip the common run of one user (or one WHERE text) issuing the template
// repeatedly; full dedup happens in finalize.
func (a *tmplAgg) observe(user string, wcHash uint64) {
	a.stats.Frequency++
	if n := len(a.users); n == 0 || a.users[n-1] != user {
		a.users = append(a.users, user)
	}
	if n := len(a.wcs); n == 0 || a.wcs[n-1] != wcHash {
		a.wcs = append(a.wcs, wcHash)
	}
}

func (a *tmplAgg) finalize() TemplateStats {
	a.stats.UserPopularity = countDistinctStrings(a.users)
	a.stats.DistinctWhere = countDistinctU64(a.wcs)
	return a.stats
}

func countDistinctStrings(s []string) int {
	if len(s) < 2 {
		return len(s)
	}
	sort.Strings(s)
	n := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

func countDistinctU64(s []uint64) int {
	if len(s) < 2 {
		return len(s)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// Templates computes per-template statistics over the SELECT entries of a
// parsed log, sorted by descending frequency (ties broken by skeleton text
// for determinism).
func Templates(pl parsedlog.Log) []TemplateStats {
	return TemplatesParallel(pl, 1)
}

// TemplatesParallel is Templates using up to `workers` goroutines
// (0 selects GOMAXPROCS, 1 is the serial path). Each worker aggregates a
// contiguous chunk of the log into fingerprint-keyed partials; partials are
// merged under a lock with commutative updates (sums, list concatenation,
// min-firstIdx winner for the descriptive fields), so the result is
// bit-identical to the serial run for every worker count.
func TemplatesParallel(pl parsedlog.Log, workers int) []TemplateStats {
	aggregate := func(byFP map[uint64]*tmplAgg, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &pl[i]
			if e.Class != sqlast.ClassSelect || e.Info == nil {
				continue
			}
			fp := e.Info.Fingerprint
			a, ok := byFP[fp]
			if !ok {
				a = newTmplAgg(e, i)
				byFP[fp] = a
			}
			a.observe(e.User, e.Info.WCHash)
		}
	}

	byFP := map[uint64]*tmplAgg{}
	if parallel.Workers(workers) <= 1 {
		aggregate(byFP, 0, len(pl))
	} else {
		var mu sync.Mutex
		parallel.Chunks(workers, len(pl), func(lo, hi int) {
			local := map[uint64]*tmplAgg{}
			aggregate(local, lo, hi)
			mu.Lock()
			mergeTmpl(byFP, local)
			mu.Unlock()
		})
	}

	out := make([]TemplateStats, 0, len(byFP))
	aggs := make([]*tmplAgg, 0, len(byFP))
	for _, a := range byFP {
		aggs = append(aggs, a)
	}
	// Restore the serial first-encounter order before the stable sort so
	// every worker count yields the same slice, byte for byte.
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].firstIdx < aggs[j].firstIdx })
	for _, a := range aggs {
		out = append(out, a.finalize())
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return out[i].Skeleton < out[j].Skeleton
	})
	return out
}

func newTmplAgg(e *parsedlog.Entry, idx int) *tmplAgg {
	return &tmplAgg{
		stats: TemplateStats{
			Fingerprint: e.Info.Fingerprint,
			Skeleton:    e.Info.SkeletonText(),
			SFC:         e.Info.SFC,
			SWC:         e.Info.SWC,
			SSC:         e.Info.SSC,
			Example:     e.Statement,
		},
		firstIdx: idx,
	}
}

// mergeTmpl folds a chunk's partial aggregates into the global map. All
// updates are order-independent: counts add, set slices concatenate (the
// finalize dedup is order-blind), and the template's descriptive fields
// (skeleton texts, example) follow the minimal firstIdx so the earliest
// occurrence wins exactly as it does serially.
func mergeTmpl(dst, src map[uint64]*tmplAgg) {
	for fp, a := range src {
		g, ok := dst[fp]
		if !ok {
			dst[fp] = a
			continue
		}
		if a.firstIdx < g.firstIdx {
			g.stats.Skeleton, g.stats.SFC, g.stats.SWC, g.stats.SSC = a.stats.Skeleton, a.stats.SFC, a.stats.SWC, a.stats.SSC
			g.stats.Example = a.stats.Example
			g.firstIdx = a.firstIdx
		}
		g.stats.Frequency += a.stats.Frequency
		g.users = append(g.users, a.users...)
		g.wcs = append(g.wcs, a.wcs...)
	}
}

// ---------------------------------------------------------------------------
// Multi-template sequence patterns
// ---------------------------------------------------------------------------

// SeqPattern is a pattern of several templates (Definition 7) identified by
// its collapsed signature: the sequence of template fingerprints with
// consecutive repeats collapsed, so that runs of different lengths of the
// same shape count as the same pattern.
type SeqPattern struct {
	Signature []uint64
	// Skeletons holds the skeleton text for each signature element.
	Skeletons []string
	// Frequency is the number of instances (maximal matching runs).
	Frequency int
	// Queries is the total number of log entries covered by all instances.
	Queries int
	// UserPopularity is the number of distinct users with at least one
	// instance.
	UserPopularity int
}

// seqAgg accumulates one collapsed-signature pattern. firstSess/firstWin
// locate the pattern's first instance (session index, then window ordinal
// within that session's scan) so the parallel merge picks the same
// descriptive Skeletons the serial scan would.
type seqAgg struct {
	p         SeqPattern
	firstSess int
	firstWin  int
	users     []string
}

// seqBlock is one run of a collapsed session stream; fp 0 marks a
// non-SELECT stream breaker.
type seqBlock struct {
	fp    uint64
	skel  string
	count int
}

// Sequences mines collapsed-signature patterns of length 2..maxLen from the
// sessions of a parsed log. Within each session the template stream is
// collapsed (consecutive repeats merged) and every window of length 2..maxLen
// over the collapsed stream counts as one instance of the corresponding
// pattern. Results are sorted by descending frequency.
func Sequences(pl parsedlog.Log, sessions []session.Session, maxLen int) []SeqPattern {
	return SequencesParallel(pl, sessions, maxLen, 1)
}

// mineSessions scans sessions[lo:hi] into byKey. blocks and keyBuf are
// caller-owned scratch reused across sessions — the per-session block slice
// was one of the mining stage's main allocators.
func mineSessions(pl parsedlog.Log, sessions []session.Session, maxLen, lo, hi int, byKey map[string]*seqAgg) {
	blocks := make([]seqBlock, 0, 64)
	var keyBuf []byte
	for si := lo; si < hi; si++ {
		sess := &sessions[si]
		blocks = blocks[:0]
		for _, idx := range sess.Indices {
			e := &pl[idx]
			if e.Class != sqlast.ClassSelect || e.Info == nil {
				// Non-select entries break the stream.
				blocks = append(blocks, seqBlock{fp: 0})
				continue
			}
			fp := e.Info.Fingerprint
			if n := len(blocks); n > 0 && blocks[n-1].fp == fp {
				blocks[n-1].count++
				continue
			}
			blocks = append(blocks, seqBlock{fp: fp, skel: e.Info.SkeletonText(), count: 1})
		}
		win := 0
		for winLen := 2; winLen <= maxLen; winLen++ {
			for i := 0; i+winLen <= len(blocks); i++ {
				ok := true
				queries := 0
				keyBuf = keyBuf[:0]
				for j, b := range blocks[i : i+winLen] {
					if b.fp == 0 {
						ok = false
						break
					}
					if j > 0 {
						keyBuf = append(keyBuf, '|')
					}
					keyBuf = append(keyBuf, strconv.FormatUint(b.fp, 16)...)
					queries += b.count
				}
				if !ok {
					continue
				}
				// map lookup with a []byte key: the compiler elides the
				// string conversion, so seen windows allocate nothing.
				a, seen := byKey[string(keyBuf)]
				if !seen {
					sig := make([]uint64, 0, winLen)
					skels := make([]string, 0, winLen)
					for _, b := range blocks[i : i+winLen] {
						sig = append(sig, b.fp)
						skels = append(skels, b.skel)
					}
					a = &seqAgg{
						p:         SeqPattern{Signature: sig, Skeletons: skels},
						firstSess: si,
						firstWin:  win,
					}
					byKey[string(keyBuf)] = a
				}
				a.p.Frequency++
				a.p.Queries += queries
				if n := len(a.users); n == 0 || a.users[n-1] != sess.User {
					a.users = append(a.users, sess.User)
				}
				win++
			}
		}
	}
}

// SequencesParallel is Sequences using up to `workers` goroutines: sessions
// fan out across workers, each mining into a local signature-keyed partial,
// and partials merge with commutative updates (the earliest instance, by
// session index then window ordinal, keeps the descriptive fields). The
// result is bit-identical to the serial run for every worker count.
func SequencesParallel(pl parsedlog.Log, sessions []session.Session, maxLen, workers int) []SeqPattern {
	if maxLen < 2 {
		maxLen = 2
	}
	byKey := map[string]*seqAgg{}
	if parallel.Workers(workers) <= 1 {
		mineSessions(pl, sessions, maxLen, 0, len(sessions), byKey)
	} else {
		var mu sync.Mutex
		parallel.Chunks(workers, len(sessions), func(lo, hi int) {
			local := map[string]*seqAgg{}
			mineSessions(pl, sessions, maxLen, lo, hi, local)
			mu.Lock()
			mergeSeq(byKey, local)
			mu.Unlock()
		})
	}

	out := make([]SeqPattern, 0, len(byKey))
	for _, a := range byKey {
		a.p.UserPopularity = countDistinctStrings(a.users)
		out = append(out, a.p)
	}
	// The comparator is a total order (collapsed signatures are unique per
	// pattern), so sorting from any map-iteration order is deterministic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return sigLess(out[i].Signature, out[j].Signature)
	})
	return out
}

// mergeSeq folds a chunk's partial pattern aggregates into the global map.
func mergeSeq(dst, src map[string]*seqAgg) {
	for k, a := range src {
		g, ok := dst[k]
		if !ok {
			dst[k] = a
			continue
		}
		if a.firstSess < g.firstSess || (a.firstSess == g.firstSess && a.firstWin < g.firstWin) {
			g.p.Signature, g.p.Skeletons = a.p.Signature, a.p.Skeletons
			g.firstSess, g.firstWin = a.firstSess, a.firstWin
		}
		g.p.Frequency += a.p.Frequency
		g.p.Queries += a.p.Queries
		g.users = append(g.users, a.users...)
	}
}

// sigLess orders signatures exactly like a byte comparison of their
// '|'-joined hex key strings, without materializing the keys. The subtle
// case is one element's hex being a prefix of the other's: the next virtual
// byte is then '|' (or end of key), and '|' sorts above every hex digit.
func sigLess(a, b []uint64) bool {
	var ba, bb [16]byte
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		ha := strconv.AppendUint(ba[:0], a[i], 16)
		hb := strconv.AppendUint(bb[:0], b[i], 16)
		m := len(ha)
		if len(hb) < m {
			m = len(hb)
		}
		for j := 0; j < m; j++ {
			if ha[j] != hb[j] {
				return ha[j] < hb[j]
			}
		}
		if len(ha) < len(hb) {
			// a's key continues with '|' (> any hex digit) or ends here.
			return i == len(a)-1
		}
		// b's key continues with '|' or ends here.
		return i != len(b)-1
	}
	return len(a) < len(b)
}
