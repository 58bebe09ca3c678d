// Package stream processes a query log incrementally, without holding the
// log. The batch pipeline (internal/core) holds the whole log; the paper's
// real subject — a 42-million-entry SkyServer log — wants a streaming pass.
// The key observation: every detection window (Definition 8) is confined to
// one user session, so once a user's stream has been silent for longer than
// the session gap, that session can be detected, solved and emitted without
// ever seeing the rest of the log.
//
// Of the log's entries, only the open sessions stay in memory. The rest of
// the state grows with what the log contains, not with its length:
//
//   - the dedup window, pruned to the (user, statement) slots a future entry
//     can still duplicate;
//   - the template aggregates: one per template, with the set of its users;
//   - the sketches, bounded by their configuration;
//   - the parse cache, which keeps a small summary of every distinct
//     statement text for the parser's lifetime. On a log of mostly distinct
//     statements it is the largest part.
//
// Input must be time-ordered. Output is emitted session by session, in
// session-close order. Template statistics accumulate across the whole
// stream. SWS classification needs global statistics and is therefore
// reported at Close time only.
package stream

import (
	"fmt"
	"sort"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/sketch"
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
	// the processor a fresh one. Sharing a parser — across the shards of a
	// Sharded engine, or between a daemon's streaming path and a batch
	// pipeline run — means identical statement texts are parsed once
	// process-wide and hit/miss metrics aggregate in one place.
	Parser *parsedlog.Parser
	// Metrics is an optional observability registry. When non-nil the
	// processor keeps live gauges and counters in it: stream_open_sessions
	// (whose Max is the high-water mark — the proof of the bounded-memory
	// claim), stream_entries_in_total, stream_selects_total,
	// stream_duplicates_total, stream_entries_out_total,
	// stream_sessions_emitted_total, and a session-length histogram. Nil
	// keeps the zero-overhead path.
	Metrics *obs.Registry
	// Sketches sizes the approximate-analytics layer (distinct-identity HLL,
	// SpaceSaving top-k, windowed SWS evidence). The zero value enables it
	// with package defaults; set Sketches.Disabled to opt out.
	Sketches sketch.Config
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
	// OpenSessionsHighWater is the peak number of simultaneously open
	// sessions — the stream's actual memory bound. Merged across shards it
	// is the sum of per-shard peaks, an upper bound on the true global peak.
	OpenSessionsHighWater int `json:"open_sessions_high_water"`
}

// Merge folds another stream's counters into s (all fields are additive).
func (s *Stats) Merge(o Stats) {
	s.In += o.In
	s.Selects += o.Selects
	s.Duplicates += o.Duplicates
	s.Out += o.Out
	s.SolvedQueries += o.SolvedQueries
	s.SessionsEmitted += o.SessionsEmitted
	s.OpenSessionsHighWater += o.OpenSessionsHighWater
	if len(o.Antipatterns) > 0 && s.Antipatterns == nil {
		s.Antipatterns = map[antipattern.Kind]int{}
	}
	for k, n := range o.Antipatterns {
		s.Antipatterns[k] += n
	}
}

// Processor is the streaming pipeline. Not safe for concurrent use.
type Processor struct {
	cfg     Config
	parser  *parsedlog.Parser
	reg     *antipattern.Registry
	solvers []rewrite.Solver

	// open holds each user's current session.
	open map[string]*openSession
	// lastSeen tracks (user, statement) → last time, for dedup. Slots past
	// the dedup horizon are pruned whenever the map has doubled since the
	// last prune, which left dedupPruned slots.
	lastSeen    map[dupKey]time.Time
	dedupPruned int
	// watermark is the max event time seen.
	watermark time.Time

	// templateCounts accumulate global per-template statistics.
	templateAgg map[uint64]*templateAgg

	// sk holds the approximate-analytics sketches; nil when disabled.
	sk *sketch.Sketches

	stats Stats
	met   streamMetrics
}

// streamMetrics are the optional registry hooks; all fields are nil (no-op)
// without Config.Metrics.
type streamMetrics struct {
	in         *obs.Counter
	selects    *obs.Counter
	dups       *obs.Counter
	out        *obs.Counter
	emitted    *obs.Counter
	open       *obs.Gauge
	sessionLen *obs.Histogram
	solvedAway *obs.Counter
	instances  *obs.Counter
	topkEvict  *obs.Counter
	swsFlush   *obs.Counter
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
	// kinds are the antipattern kinds ever attributed to this template by a
	// detected instance (nil until the first attribution). This is the
	// long-horizon verdict the retention store stamps into compacted blocks.
	kinds map[antipattern.Kind]struct{}
}

// New returns a streaming processor.
func New(cfg Config) *Processor {
	cfg = cfg.withDefaults()
	reg := antipattern.DefaultRegistry(cfg.Catalog, antipattern.Options{
		MinRun:           cfg.MinRun,
		RequireKeyColumn: !cfg.DisableKeyCheck,
	})
	for _, r := range cfg.ExtraRules {
		reg.Register(r)
	}
	solvers := rewrite.DefaultSolvers(cfg.Catalog)
	solvers = append(solvers, cfg.ExtraSolvers...)
	parser := cfg.Parser
	if parser == nil {
		parser = parsedlog.NewParser()
	}
	p := &Processor{
		cfg:         cfg,
		parser:      parser,
		reg:         reg,
		solvers:     solvers,
		open:        map[string]*openSession{},
		lastSeen:    map[dupKey]time.Time{},
		templateAgg: map[uint64]*templateAgg{},
		sk:          sketch.New(cfg.Sketches),
	}
	if m := cfg.Metrics; m != nil {
		p.parser.Instrument(m)
		p.met = streamMetrics{
			in:         m.Counter("stream_entries_in_total"),
			selects:    m.Counter("stream_selects_total"),
			dups:       m.Counter("stream_duplicates_total"),
			out:        m.Counter("stream_entries_out_total"),
			emitted:    m.Counter("stream_sessions_emitted_total"),
			open:       m.Gauge("stream_open_sessions"),
			sessionLen: m.Histogram("stream_session_entries", obs.SizeBuckets),
			solvedAway: m.Counter("stream_solved_queries_total"),
			instances:  m.Counter("stream_instances_total"),
			topkEvict:  m.Counter("sketch_topk_evictions_total"),
			swsFlush:   m.Counter("sketch_sws_window_flushes_total"),
		}
	}
	return p
}

// Stats returns the accumulated counters.
func (p *Processor) Stats() Stats { return p.stats }

// OpenSessions returns the number of sessions currently buffered — the
// memory bound of the stream.
func (p *Processor) OpenSessions() int { return len(p.open) }

// Add offers one entry (time-ordered input) and returns any cleaned entries
// whose sessions closed as a consequence. It returns an error when the
// input goes backwards in time by more than the session gap (the stream's
// ordering contract).
func (p *Processor) Add(e logmodel.Entry) (logmodel.Log, error) {
	p.stats.In++
	p.met.in.Inc()
	if e.Time.Before(p.watermark.Add(-p.cfg.SessionGap)) {
		return nil, fmt.Errorf("stream: entry at %v arrived after watermark %v (input must be time-ordered)", e.Time, p.watermark)
	}
	if e.Time.After(p.watermark) {
		p.watermark = e.Time
	}
	if p.sk != nil {
		// Distinct identities count every in-order entry's user, SELECT or
		// not — the sketch answers "how many identities touched the service",
		// not "how many queried templates".
		p.sk.HLL.AddString(e.User)
	}

	var out logmodel.Log

	pe := p.parser.ParseEntry(e)
	if pe.Class == sqlast.ClassSelect {
		// Dedup against the previous occurrence (sliding window).
		k := dupKey{user: e.User, stmt: e.Statement}
		prev, seen := p.lastSeen[k]
		p.lastSeen[k] = e.Time
		if len(p.lastSeen) >= 2*p.dedupPruned+minDedupPrune {
			p.pruneDedup()
		}
		if seen && e.Time.Sub(prev) <= p.cfg.DuplicateThreshold {
			p.stats.Duplicates++
			p.met.dups.Inc()
		} else {
			p.stats.Selects++
			p.met.selects.Inc()
			p.recordTemplate(pe)
			os := p.open[e.User]
			if os != nil {
				gap := e.Time.Sub(os.last) > p.cfg.SessionGap
				labelChange := e.Session != "" && os.label != "" && e.Session != os.label
				if gap || labelChange {
					out = append(out, p.closeSession(os)...)
					delete(p.open, e.User)
					os = nil
				}
			}
			if os == nil {
				os = &openSession{user: e.User, label: e.Session}
				p.open[e.User] = os
				if n := len(p.open); n > p.stats.OpenSessionsHighWater {
					p.stats.OpenSessionsHighWater = n
				}
				p.met.open.Set(int64(len(p.open)))
			}
			os.entries = append(os.entries, pe)
			os.last = e.Time
			if e.Session != "" {
				os.label = e.Session
			}
		}
	}

	// Watermark eviction: every user silent for longer than the gap can be
	// closed — no future in-order entry can extend those sessions.
	out = append(out, p.evict()...)
	p.met.open.Set(int64(len(p.open)))
	sortByTime(out)
	return out, nil
}

// minDedupPrune is the dedup-window growth below which pruning is not worth
// a pass over the map.
const minDedupPrune = 1024

// dedupHorizon is the oldest last-seen time a future entry can still
// duplicate: entries arrive at most SessionGap behind the watermark, and a
// duplicate follows its predecessor within DuplicateThreshold. A slot older
// than the horizon can never match again, so dropping it changes no output.
func (p *Processor) dedupHorizon() time.Time {
	return p.watermark.Add(-p.cfg.SessionGap - p.cfg.DuplicateThreshold)
}

// pruneDedup drops the dedup slots older than the horizon. Survivors move to
// a fresh map because a Go map never returns the memory of deleted slots.
func (p *Processor) pruneDedup() {
	horizon := p.dedupHorizon()
	live := make(map[dupKey]time.Time, len(p.lastSeen)/2)
	for k, last := range p.lastSeen {
		if !last.Before(horizon) {
			live[k] = last
		}
	}
	p.lastSeen = live
	p.dedupPruned = len(live)
}

// Watermark returns the max event time this stream has seen (zero before the
// first entry). Not safe for concurrent use with Add — callers that share a
// Processor across goroutines must hold the same lock they use for Add.
func (p *Processor) Watermark() time.Time { return p.watermark }

// evict closes every open session that the watermark proves silent and
// returns their cleaned entries (unsorted).
func (p *Processor) evict() logmodel.Log {
	return p.evictBefore(p.watermark)
}

func (p *Processor) evictBefore(t time.Time) logmodel.Log {
	var out logmodel.Log
	for user, os := range p.open {
		if t.Sub(os.last) > p.cfg.SessionGap {
			out = append(out, p.closeSession(os)...)
			delete(p.open, user)
		}
	}
	return out
}

// Advance returns the cleaned entries of any session t proves silent. It is
// how a sharded engine merges window boundaries: one shard only observes its
// own partition's event times, so the coordinator periodically advances every
// shard to the global maximum, closing sessions whose silence only the other
// partitions can prove. Advance deliberately does NOT raise the stream's
// ordering watermark: a partition lagging behind the global clock (an ingest
// queue with backlog) must still be allowed to add its queued entries, which
// are in order for *its* stream even when other partitions are far ahead.
func (p *Processor) Advance(t time.Time) logmodel.Log {
	out := p.evictBefore(t)
	p.met.open.Set(int64(len(p.open)))
	sortByTime(out)
	return out
}

// Close flushes all open sessions and returns their cleaned entries.
func (p *Processor) Close() logmodel.Log {
	var out logmodel.Log
	users := make([]string, 0, len(p.open))
	for u := range p.open {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		out = append(out, p.closeSession(p.open[u])...)
		delete(p.open, u)
	}
	p.met.open.Set(0)
	sortByTime(out)
	return out
}

func sortByTime(l logmodel.Log) {
	sort.SliceStable(l, func(i, j int) bool {
		if !l[i].Time.Equal(l[j].Time) {
			return l[i].Time.Before(l[j].Time)
		}
		return l[i].Seq < l[j].Seq
	})
}

// closeSession runs detection and solving over one finished session.
func (p *Processor) closeSession(os *openSession) logmodel.Log {
	if p.sk != nil {
		// Every accepted SELECT lives in exactly one session and every close
		// path funnels through here, so the SWS accumulator sees each entry
		// exactly once. Evidence is stamped with the session's close time so
		// the whole session lands in one event-time window.
		ts := os.last.UnixNano()
		for _, pe := range os.entries {
			if n := p.sk.SWS.Observe(ts, pe.Info.Fingerprint, pe.User, pe.Info.WCHash); n > 0 {
				p.met.swsFlush.Add(int64(n))
			}
		}
	}
	p.stats.SessionsEmitted++
	p.met.emitted.Inc()
	p.met.sessionLen.Observe(int64(len(os.entries)))
	idxs := make([]int, len(os.entries))
	for i := range idxs {
		idxs[i] = i
	}
	sess := session.Session{User: os.user, Indices: idxs}
	instances := p.reg.Detect(os.entries, []session.Session{sess})
	if p.stats.Antipatterns == nil {
		p.stats.Antipatterns = map[antipattern.Kind]int{}
	}
	for _, in := range instances {
		p.stats.Antipatterns[in.Kind]++
		// Attribute the verdict to every member query's template.
		for _, idx := range in.Indices {
			if idx < 0 || idx >= len(os.entries) || os.entries[idx].Info == nil {
				continue
			}
			if a := p.templateAgg[os.entries[idx].Info.Fingerprint]; a != nil {
				if a.kinds == nil {
					a.kinds = map[antipattern.Kind]struct{}{}
				}
				a.kinds[in.Kind] = struct{}{}
			}
		}
	}
	p.met.instances.Add(int64(len(instances)))
	res := rewrite.Apply(os.entries, instances, p.solvers)
	for _, s := range res.Stats {
		p.stats.SolvedQueries += s.QueriesBefore
		p.met.solvedAway.Add(int64(s.QueriesBefore))
	}
	p.stats.Out += len(res.Clean)
	p.met.out.Add(int64(len(res.Clean)))
	return res.Clean
}

func (p *Processor) recordTemplate(pe parsedlog.Entry) {
	fp := pe.Info.Fingerprint
	a, ok := p.templateAgg[fp]
	if !ok {
		a = &templateAgg{skeleton: pe.Info.SkeletonText(), users: map[string]struct{}{}}
		p.templateAgg[fp] = a
	}
	a.count++
	a.users[pe.User] = struct{}{}
	if p.sk != nil {
		// Same admission rule as templateAgg: accepted, non-duplicate
		// SELECTs. The SpaceSaving counts therefore approximate exactly the
		// Frequency column of Templates().
		if p.sk.Top.Observe(fp, a.skeleton) {
			p.met.topkEvict.Inc()
		}
	}
}

// Templates returns the accumulated per-template statistics, most frequent
// first. (DistinctWhere is not tracked streaming; SWS classification over
// these stats is the caller's choice of pattern.SWSOptions.)
func (p *Processor) Templates() []pattern.TemplateStats {
	out := make([]pattern.TemplateStats, 0, len(p.templateAgg))
	for fp, a := range p.templateAgg {
		out = append(out, pattern.TemplateStats{
			Fingerprint:    fp,
			Skeleton:       a.skeleton,
			Frequency:      a.count,
			UserPopularity: len(a.users),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return out[i].Skeleton < out[j].Skeleton
	})
	return out
}

// TemplateKinds returns, for every template with at least one detected
// antipattern instance, the sorted kind names attributed to it. Templates
// never seen inside an instance are absent.
func (p *Processor) TemplateKinds() map[uint64][]string {
	out := map[uint64][]string{}
	for fp, a := range p.templateAgg {
		if len(a.kinds) == 0 {
			continue
		}
		ks := make([]string, 0, len(a.kinds))
		for k := range a.kinds {
			ks = append(ks, string(k))
		}
		sort.Strings(ks)
		out[fp] = ks
	}
	return out
}

// Sketches exposes the processor's approximate-analytics state (nil when the
// layer is disabled). Callers share the Add caller's synchronization.
func (p *Processor) Sketches() *sketch.Sketches { return p.sk }

// ClassifySWS drains the windowed SWS evidence into a classification, using
// the stream's accepted-SELECT count as the batch pipeline's total. After
// Close it matches internal/core's batch SWS decision bit for bit (the
// evidence is exact: frequency and WHERE hashes are uncapped, and user sets
// are exact below the configured cap). Nil when sketches are disabled.
func (p *Processor) ClassifySWS(opt pattern.SWSOptions) map[uint64]bool {
	if p.sk == nil {
		return nil
	}
	return p.sk.SWS.Classify(p.stats.Selects, opt)
}

// Run streams a whole log through a fresh processor and returns the cleaned
// log plus the final stats — the convenience one-shot API.
func Run(l logmodel.Log, cfg Config) (logmodel.Log, Stats, error) {
	p := New(cfg)
	var out logmodel.Log
	for _, e := range l {
		emitted, err := p.Add(e)
		if err != nil {
			return nil, p.Stats(), err
		}
		out = append(out, emitted...)
	}
	out = append(out, p.Close()...)
	return out, p.Stats(), nil
}
