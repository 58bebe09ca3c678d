// Package stream processes a query log incrementally, without holding the
// log. The batch pipeline (internal/core) holds the whole log; the paper's
// real subject — a 42-million-entry SkyServer log — wants a streaming pass.
// The key observation: every detection window (Definition 8) is confined to
// one user session, so once a user's stream has been silent for longer than
// the session gap, that session can be detected, solved and emitted without
// ever seeing the rest of the log.
//
// The engine is Sharded: entries partition by user into shards, each of
// which dedups, sessionizes, detects and solves its own users' entries. One
// shard is the serial stream.
//
// Of the log's entries, only the open sessions stay in memory. The rest of
// the state grows with what the log contains, not with its length:
//
//   - the dedup window, pruned to the (user, statement) slots a future entry
//     can still duplicate;
//   - the template table: one aggregate per template, with its exact
//     frequency, the set of its users and the set of its distinct WHERE
//     clauses — the three statistics SWS classification reads;
//   - the user set: every user of an accepted entry, SELECT or not, which
//     grows with distinct users, as the template table's user sets do;
//   - the parse cache, which keeps a small summary of every distinct
//     statement text for the parser's lifetime. On a log of mostly distinct
//     statements it is the largest part.
//
// Input must be time-ordered. Output is emitted session by session, in
// session-close order. Template statistics accumulate across the whole
// stream, open sessions included, so SWS classification over them equals
// the batch pipeline's once the stream has drained.
package stream

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/sqlast"
)

// Config mirrors the batch pipeline's knobs that make sense per session.
type Config struct {
	// Catalog supplies key metadata; nil selects schema.SkyServer().
	Catalog *schema.Catalog
	// DuplicateThreshold is the dedup window; zero selects 1 s.
	DuplicateThreshold time.Duration
	// SessionGap closes a user's session after this much silence; zero
	// selects 5 minutes.
	SessionGap time.Duration
	// MinRun is the minimum antipattern run length (default 2).
	MinRun int
	// DisableKeyCheck drops Definition 11's key-attribute axiom.
	DisableKeyCheck bool
	// ExtraRules and ExtraSolvers extend the registry (§5.4).
	ExtraRules   []antipattern.Rule
	ExtraSolvers []rewrite.Solver
	// Parser optionally supplies a shared statement-parse cache. Nil gives
	// the engine a fresh one, shared by its shards. Sharing a parser between
	// a daemon's streaming path and a batch pipeline run means identical
	// statement texts are parsed once process-wide and hit/miss metrics
	// aggregate in one place.
	Parser *parsedlog.Parser
	// Metrics is an optional observability registry. When non-nil the
	// engine keeps live gauges and counters in it: stream_open_sessions
	// (the sessions open between calls, across all shards; its Max is the
	// high-water mark — the proof of the bounded-memory claim),
	// stream_entries_in_total, stream_selects_total,
	// stream_duplicates_total, stream_entries_out_total,
	// stream_sessions_emitted_total, stream_rejected_future_skew_total, and
	// a session-length histogram. Nil keeps the zero-overhead path.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		c.Catalog = schema.SkyServer()
	}
	if c.DuplicateThreshold == 0 {
		c.DuplicateThreshold = time.Second
	}
	if c.SessionGap == 0 {
		c.SessionGap = 5 * time.Minute
	}
	if c.MinRun < 2 {
		c.MinRun = 2
	}
	return c
}

// Stats accumulates over the whole stream. The JSON names are the export
// contract shared by the CLI's -json streaming export and the daemon's
// GET /report payload.
type Stats struct {
	In         int `json:"in"`         // entries offered
	Selects    int `json:"selects"`    // parsed SELECTs kept (non-duplicate)
	Duplicates int `json:"duplicates"` // dropped as duplicates
	Out        int `json:"out"`        // entries emitted
	// Antipatterns aggregates instance counts per kind.
	Antipatterns map[antipattern.Kind]int `json:"antipatterns,omitempty"`
	// SolvedQueries counts statements consumed by solved instances.
	SolvedQueries int `json:"solved_queries"`
	// SessionsEmitted counts sessions closed and emitted.
	SessionsEmitted int `json:"sessions_emitted"`
	// OpenSessionsHighWater is the peak number of sessions open between
	// calls into the engine, across all shards — the stream's actual memory
	// bound. When one call opens a session and evicts another, the two are
	// never counted as open together.
	OpenSessionsHighWater int `json:"open_sessions_high_water"`
}

// Merge folds another stream's additive counters into s. It leaves
// OpenSessionsHighWater alone: peaks do not add.
func (s *Stats) Merge(o Stats) {
	s.In += o.In
	s.Selects += o.Selects
	s.Duplicates += o.Duplicates
	s.Out += o.Out
	s.SolvedQueries += o.SolvedQueries
	s.SessionsEmitted += o.SessionsEmitted
	if len(o.Antipatterns) > 0 && s.Antipatterns == nil {
		s.Antipatterns = map[antipattern.Kind]int{}
	}
	for k, n := range o.Antipatterns {
		s.Antipatterns[k] += n
	}
}

// shard is one user partition of the engine: the streaming pipeline over its
// users' entries. Sharded holds mu around every call and every read of the
// fields below it.
type shard struct {
	mu sync.Mutex

	cfg     Config
	reg     *antipattern.Registry
	solvers []rewrite.Solver

	// open holds each user's current session.
	open map[string]*openSession
	// minLast is a lower bound on the open sessions' last activity, so an
	// eviction pass that cannot close anything returns without a scan. The
	// zero time means "unknown": the next pass scans and sets it.
	minLast time.Time
	// spares are cleared entry buffers of closed sessions, handed to the
	// next new sessions (at most maxSpares, each of capacity ≤ maxSpareCap).
	spares []parsedlog.Log
	// lastSeen tracks (user, statement) → last time, for dedup. Slots past
	// the dedup horizon are pruned whenever the map has doubled since the
	// last prune, which left dedupPruned slots.
	lastSeen    map[dupKey]time.Time
	dedupPruned int
	// watermark is the max event time seen.
	watermark time.Time

	// templateAgg is the template table: exact per-template statistics,
	// accumulated across the whole stream.
	templateAgg map[uint64]*templateAgg

	// users holds the user of every in-order entry. Users partition by
	// shard, so the engine's distinct-user count is the sum of the sets'
	// sizes.
	users map[string]struct{}

	stats Stats
	met   streamMetrics
}

// streamMetrics are the optional registry hooks, shared by every shard; all
// fields are nil (no-op) without Config.Metrics.
type streamMetrics struct {
	in         *obs.Counter
	selects    *obs.Counter
	dups       *obs.Counter
	out        *obs.Counter
	emitted    *obs.Counter
	sessionLen *obs.Histogram
	solvedAway *obs.Counter
	instances  *obs.Counter
}

type dupKey struct{ user, stmt string }

type openSession struct {
	user    string
	label   string
	last    time.Time
	entries parsedlog.Log
}

type templateAgg struct {
	skeleton string
	count    int
	users    map[string]struct{}
	// wcs holds the distinct WHERE-clause hashes (skeleton.Info.WCHash) of
	// the occurrences, the batch miner's DistinctWhere.
	wcs map[uint64]struct{}
	// kinds are the antipattern kinds ever attributed to this template by a
	// detected instance (nil until the first attribution). This is the
	// long-horizon verdict the retention store stamps into compacted blocks.
	kinds map[antipattern.Kind]struct{}
}

// newShard returns an empty shard. cfg has its defaults and its Parser set;
// reg and solvers hold no state, so the shards of an engine share them.
func newShard(cfg Config, reg *antipattern.Registry, solvers []rewrite.Solver, met streamMetrics) *shard {
	return &shard{
		cfg:         cfg,
		reg:         reg,
		solvers:     solvers,
		open:        map[string]*openSession{},
		lastSeen:    map[dupKey]time.Time{},
		templateAgg: map[uint64]*templateAgg{},
		users:       map[string]struct{}{},
		met:         met,
	}
}

// Add offers one entry (time-ordered input) and returns any cleaned entries
// whose sessions closed as a consequence. It returns an error when the
// input goes backwards in time by more than the session gap (the stream's
// ordering contract).
func (sh *shard) Add(e logmodel.Entry) (logmodel.Log, error) {
	sh.stats.In++
	sh.met.in.Inc()
	if e.Time.Before(sh.watermark.Add(-sh.cfg.SessionGap)) {
		return nil, fmt.Errorf("stream: entry at %v arrived after watermark %v (input must be time-ordered)", e.Time, sh.watermark)
	}
	if e.Time.After(sh.watermark) {
		sh.watermark = e.Time
	}
	// Distinct users count every in-order entry's user, SELECT or not, as
	// the batch report's DistinctUsers counts the whole log's: "how many
	// identities touched the service", not "how many queried templates".
	sh.users[e.User] = struct{}{}

	var out logmodel.Log

	pe := sh.cfg.Parser.ParseEntry(e)
	if pe.Class == sqlast.ClassSelect {
		// Dedup against the previous occurrence (sliding window).
		k := dupKey{user: e.User, stmt: e.Statement}
		prev, seen := sh.lastSeen[k]
		sh.lastSeen[k] = e.Time
		if len(sh.lastSeen) >= 2*sh.dedupPruned+minDedupPrune {
			sh.pruneDedup()
		}
		if seen && e.Time.Sub(prev) <= sh.cfg.DuplicateThreshold {
			sh.stats.Duplicates++
			sh.met.dups.Inc()
		} else {
			sh.stats.Selects++
			sh.met.selects.Inc()
			sh.recordTemplate(pe)
			os := sh.open[e.User]
			if os != nil {
				gap := e.Time.Sub(os.last) > sh.cfg.SessionGap
				labelChange := e.Session != "" && os.label != "" && e.Session != os.label
				if gap || labelChange {
					out = appendOut(out, sh.closeSession(os))
					delete(sh.open, e.User)
					os = nil
				}
			}
			if os == nil {
				os = &openSession{user: e.User, label: e.Session, entries: sh.spare()}
				sh.open[e.User] = os
			}
			os.entries = append(os.entries, pe)
			os.last = e.Time
			if !sh.minLast.IsZero() && e.Time.Before(sh.minLast) {
				sh.minLast = e.Time
			}
			if e.Session != "" {
				os.label = e.Session
			}
		}
	}

	// Watermark eviction: every user silent for longer than the gap can be
	// closed — no future in-order entry can extend those sessions.
	out = appendOut(out, sh.evictBefore(sh.watermark))
	sortByTime(out)
	return out, nil
}

// appendOut appends more to out, without a copy while out is empty: a
// closed session's clean log is its own fresh slice.
func appendOut(out, more logmodel.Log) logmodel.Log {
	if len(out) == 0 {
		return more
	}
	return append(out, more...)
}

// Spare entry buffers: sessions are short, so a closed session's buffer,
// cleared, serves the shard's next new session instead of growing a fresh
// one by doubling. The bounds keep the list under 64 KB per shard.
const (
	maxSpares   = 8
	maxSpareCap = 64
)

// spare returns an empty entry buffer for a new session: a spare one if the
// shard has it, else nil.
func (sh *shard) spare() parsedlog.Log {
	n := len(sh.spares)
	if n == 0 {
		return nil
	}
	b := sh.spares[n-1]
	sh.spares[n-1] = nil
	sh.spares = sh.spares[:n-1]
	return b
}

// recycle clears a closed session's entry buffer and keeps it as a spare
// while the list has room and the buffer is small.
func (sh *shard) recycle(os *openSession) {
	b := os.entries
	os.entries = nil
	if cap(b) == 0 || cap(b) > maxSpareCap || len(sh.spares) >= maxSpares {
		return
	}
	clear(b)
	sh.spares = append(sh.spares, b[:0])
}

// minDedupPrune is the dedup-window growth below which pruning is not worth
// a pass over the map.
const minDedupPrune = 1024

// dedupHorizon is the oldest last-seen time a future entry can still
// duplicate: entries arrive at most SessionGap behind the watermark, and a
// duplicate follows its predecessor within DuplicateThreshold. A slot older
// than the horizon can never match again, so dropping it changes no output.
func (sh *shard) dedupHorizon() time.Time {
	return sh.watermark.Add(-sh.cfg.SessionGap - sh.cfg.DuplicateThreshold)
}

// pruneDedup drops the dedup slots older than the horizon. Survivors move to
// a fresh map because a Go map never returns the memory of deleted slots.
func (sh *shard) pruneDedup() {
	horizon := sh.dedupHorizon()
	live := make(map[dupKey]time.Time, len(sh.lastSeen)/2)
	for k, last := range sh.lastSeen {
		if !last.Before(horizon) {
			live[k] = last
		}
	}
	sh.lastSeen = live
	sh.dedupPruned = len(live)
}

// evictBefore closes every open session that t proves silent and returns
// their cleaned entries (unsorted). While minLast is within a session gap of
// t no session can be silent long enough, so it returns at once; otherwise
// it scans every open session and resets minLast to the survivors' least
// last activity.
func (sh *shard) evictBefore(t time.Time) logmodel.Log {
	if !sh.minLast.IsZero() && t.Sub(sh.minLast) <= sh.cfg.SessionGap {
		return nil
	}
	var out logmodel.Log
	var least time.Time
	found := false
	for user, os := range sh.open {
		if t.Sub(os.last) > sh.cfg.SessionGap {
			out = appendOut(out, sh.closeSession(os))
			delete(sh.open, user)
		} else if !found || os.last.Before(least) {
			least, found = os.last, true
		}
	}
	sh.minLast = least
	return out
}

// Close flushes all open sessions and returns their cleaned entries.
func (sh *shard) Close() logmodel.Log {
	var out logmodel.Log
	users := make([]string, 0, len(sh.open))
	for u := range sh.open {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		out = append(out, sh.closeSession(sh.open[u])...)
		delete(sh.open, u)
	}
	sortByTime(out)
	return out
}

// sortByTime orders emitted entries by (Time, Seq), stably and without
// allocating.
func sortByTime(l logmodel.Log) {
	if len(l) < 2 {
		return
	}
	slices.SortStableFunc(l, func(a, b logmodel.Entry) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// closeSession runs detection and solving over one finished session.
func (sh *shard) closeSession(os *openSession) logmodel.Log {
	sh.stats.SessionsEmitted++
	sh.met.emitted.Inc()
	sh.met.sessionLen.Observe(int64(len(os.entries)))
	idxs := make([]int, len(os.entries))
	for i := range idxs {
		idxs[i] = i
	}
	sess := session.Session{User: os.user, Indices: idxs}
	instances := sh.reg.Detect(os.entries, []session.Session{sess})
	if sh.stats.Antipatterns == nil {
		sh.stats.Antipatterns = map[antipattern.Kind]int{}
	}
	for _, in := range instances {
		sh.stats.Antipatterns[in.Kind]++
		// Attribute the verdict to every member query's template.
		for _, idx := range in.Indices {
			if idx < 0 || idx >= len(os.entries) || os.entries[idx].Info == nil {
				continue
			}
			if a := sh.templateAgg[os.entries[idx].Info.Fingerprint]; a != nil {
				if a.kinds == nil {
					a.kinds = map[antipattern.Kind]struct{}{}
				}
				a.kinds[in.Kind] = struct{}{}
			}
		}
	}
	sh.met.instances.Add(int64(len(instances)))
	res := rewrite.Apply(os.entries, instances, sh.solvers)
	for _, s := range res.Stats {
		sh.stats.SolvedQueries += s.QueriesBefore
		sh.met.solvedAway.Add(int64(s.QueriesBefore))
	}
	sh.stats.Out += len(res.Clean)
	sh.met.out.Add(int64(len(res.Clean)))
	// The clean log holds copies of the entries, so the buffer is free.
	sh.recycle(os)
	return res.Clean
}

func (sh *shard) recordTemplate(pe parsedlog.Entry) {
	fp := pe.Info.Fingerprint
	a, ok := sh.templateAgg[fp]
	if !ok {
		a = &templateAgg{skeleton: pe.Info.SkeletonText(), users: map[string]struct{}{}, wcs: map[uint64]struct{}{}}
		sh.templateAgg[fp] = a
	}
	a.count++
	a.users[pe.User] = struct{}{}
	a.wcs[pe.Info.WCHash] = struct{}{}
}
