// Sharded streaming. The stream exploits that detection windows are confined
// to one user session; sharding exploits the next invariant out: *users* are
// independent too. Entries are partitioned by user hash into independent
// shards — dedup keys (user, statement) and sessions (per user) both live
// wholly inside one shard — so shards share only the statement-parse cache
// (lock-free itself) and the global event watermark that the MaxFutureSkew
// guard reads.
//
// Ordering contract: each shard must see its own entries in time order. An
// entry up to one session gap behind its shard's watermark is accepted; one
// further behind is rejected as out of order. A session closes on its own
// shard's clock — when that shard's watermark is a session gap past the
// session's last entry — or at Close, never because another shard's event
// time ran ahead. A shard's output is therefore a function of the entries it
// was given, in the order it was given them, and the engine emits the same
// multiset at every shard count and under every interleaving of its shards.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/rewrite"
)

// ShardedConfig configures a sharded streaming engine.
type ShardedConfig struct {
	Config
	// Shards is the number of user-hash partitions. Zero selects the next
	// power of two at or above 2×GOMAXPROCS (minimum 8); other values are
	// rounded up to a power of two.
	Shards int
	// Workers bounds the fan-out used by Close and RunSharded (0 selects
	// GOMAXPROCS, 1 is serial).
	Workers int
	// MaxFutureSkew bounds how far one entry may advance the global
	// watermark past its current value. Without a bound, a single corrupted
	// far-future timestamp raises its shard's watermark past every session
	// open there, closing them all, and the shard then rejects its later
	// in-order entries as out of order. Entries beyond the bound are
	// rejected with ErrFutureSkew (and counted as
	// stream_rejected_future_skew_total when Metrics is set) instead. The
	// guard compares against the global watermark, the newest event time
	// any shard has applied, so where shards are fed concurrently (the
	// daemon's drains) whether an entry is rejected can depend on how far
	// the other shards have got. Zero disables the bound — batch replays of
	// historic logs legitimately jump the event clock by months.
	MaxFutureSkew time.Duration
}

func (c ShardedConfig) withDefaults() ShardedConfig {
	c.Config = c.Config.withDefaults()
	if c.Shards <= 0 {
		c.Shards = 2 * runtime.GOMAXPROCS(0)
		if c.Shards < 8 {
			c.Shards = 8
		}
	}
	c.Shards = nextPow2(c.Shards)
	return c
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// userHash picks each user's shard. It is FNV-1a — a fixed, documented
// function rather than a per-process random seed — because shard routing is
// part of the durable state contract: a snapshot taken by one process must
// restore per-shard state onto the same shards in the next process, and
// a journal replay must route every entry exactly as the crashed run did.
func userHash(user string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= prime64
	}
	return h
}

// ErrFutureSkew marks an entry rejected because its timestamp would advance
// the global watermark beyond ShardedConfig.MaxFutureSkew.
var ErrFutureSkew = errors.New("stream: entry timestamp too far in the future")

// Sharded is a sharded streaming engine. All methods are safe for concurrent
// use; per-user time ordering must be preserved by the caller (route one
// user's entries through one goroutine, or use RunSharded / a server queue
// per shard).
type Sharded struct {
	cfg    ShardedConfig
	shards []*shard
	mask   uint64

	// watermarkNS is the global max event time (unix nanos) across shards.
	watermarkNS atomic.Int64
	// openCount/openHigh count the sessions open between calls, across all
	// shards, and their peak: the engine's only open-session count. Each
	// delta is computed under the owning shard's lock.
	openCount atomic.Int64
	openHigh  atomic.Int64

	// gauge is the registry's stream_open_sessions gauge, moved with
	// openCount. Nil without Config.Metrics.
	gauge *obs.Gauge
	// mSkew counts entries rejected by the MaxFutureSkew watermark guard.
	mSkew *obs.Counter
}

// NewSharded returns a sharded streaming engine.
func NewSharded(cfg ShardedConfig) *Sharded {
	cfg = cfg.withDefaults()
	if cfg.Parser == nil {
		cfg.Parser = parsedlog.NewParser()
	}
	s := &Sharded{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	s.watermarkNS.Store(math.MinInt64)
	var met streamMetrics
	if m := cfg.Metrics; m != nil {
		cfg.Parser.Instrument(m)
		met = streamMetrics{
			in:         m.Counter("stream_entries_in_total"),
			selects:    m.Counter("stream_selects_total"),
			dups:       m.Counter("stream_duplicates_total"),
			out:        m.Counter("stream_entries_out_total"),
			emitted:    m.Counter("stream_sessions_emitted_total"),
			sessionLen: m.Histogram("stream_session_entries", obs.SizeBuckets),
			solvedAway: m.Counter("stream_solved_queries_total"),
			instances:  m.Counter("stream_instances_total"),
		}
		s.gauge = m.Gauge("stream_open_sessions")
		s.mSkew = m.Counter("stream_rejected_future_skew_total")
	}
	reg := antipattern.DefaultRegistry(cfg.Catalog, antipattern.Options{
		MinRun:           cfg.MinRun,
		RequireKeyColumn: !cfg.DisableKeyCheck,
	})
	for _, r := range cfg.ExtraRules {
		reg.Register(r)
	}
	solvers := append(rewrite.DefaultSolvers(cfg.Catalog), cfg.ExtraSolvers...)
	for i := range s.shards {
		s.shards[i] = newShard(cfg.Config, reg, solvers, met)
	}
	return s
}

// NumShards returns the partition count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardFor returns the partition index owning a user — the routing a server
// uses to keep one user's entries on one ingest queue. It is deterministic
// across processes (see userHash) so restored snapshots and journal replays
// route identically to the run that produced them.
func (s *Sharded) ShardFor(user string) int {
	return int(userHash(user) & s.mask)
}

// OpenSessions returns the number of sessions buffered across all shards
// (between calls).
func (s *Sharded) OpenSessions() int { return int(s.openCount.Load()) }

// Watermark returns the global max event time across all shards, or the zero
// time before any entry has been accepted. Safe for concurrent use.
func (s *Sharded) Watermark() time.Time {
	ns := s.watermarkNS.Load()
	if ns == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// ShardWatermarks returns each partition's own max event time (zero for a
// shard that has seen no entries). A shard whose watermark trails the global
// one is lagging — its ingest queue has backlog, or its users are simply
// quiet. Safe for concurrent use; each shard is read under its own lock.
func (s *Sharded) ShardWatermarks() []time.Time {
	out := make([]time.Time, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.watermark
		sh.mu.Unlock()
	}
	return out
}

// Add offers one entry, routing it to its user's shard. Cleaned entries of
// any session of that shard that closed as a consequence are returned,
// sorted by time.
func (s *Sharded) Add(e logmodel.Entry) (logmodel.Log, error) {
	return s.AddShard(s.ShardFor(e.User), e)
}

// AddShard is Add for a caller that already routed the entry (a per-shard
// ingest queue). i must equal ShardFor(e.User) for dedup and sessionization
// to see the user's whole stream.
func (s *Sharded) AddShard(i int, e logmodel.Entry) (logmodel.Log, error) {
	out, err := s.AddShardParsed(i, e)
	return raw(out), err
}

// AddShardParsed is AddShard returning each cleaned entry with the parse
// result the shard holds for it, so a caller that reads the summaries (the
// daemon's /clusters table) parses nothing.
func (s *Sharded) AddShardParsed(i int, e logmodel.Entry) (parsedlog.Log, error) {
	ns := e.Time.UnixNano()
	if s.cfg.MaxFutureSkew > 0 {
		// Guard the global watermark before raising it: one bogus far-future
		// timestamp must not close every open session in its shard.
		wm := s.watermarkNS.Load()
		if wm != math.MinInt64 && ns > wm+int64(s.cfg.MaxFutureSkew) {
			s.mSkew.Inc()
			return nil, fmt.Errorf("%w: entry at %v is %v past watermark %v (max skew %v)",
				ErrFutureSkew, e.Time, time.Duration(ns-wm), time.Unix(0, wm).UTC(), s.cfg.MaxFutureSkew)
		}
	}
	s.raiseWatermark(ns)
	sh := s.shards[i]
	sh.mu.Lock()
	before := len(sh.open)
	out, err := sh.Add(e)
	s.noteOpenDelta(len(sh.open) - before)
	sh.mu.Unlock()
	return out, err
}

// AddShardBatch applies a batch of already-routed entries to shard i in
// order, invoking done after each with the entry's index, emitted output and
// error. It is a faithful loop over AddShard, so the shard's ordering
// check, the watermark raise and the skew guard behave exactly as under
// per-entry dispatch: the shard's output depends on which entries it is
// given and in what order, not on how they are batched.
func (s *Sharded) AddShardBatch(i int, entries []logmodel.Entry, done func(k int, out logmodel.Log, err error)) {
	for k := range entries {
		out, err := s.AddShard(i, entries[k])
		done(k, out, err)
	}
}

func (s *Sharded) raiseWatermark(ns int64) {
	for {
		cur := s.watermarkNS.Load()
		if ns <= cur || s.watermarkNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// noteOpenDelta applies one shard's change in open sessions to the global
// count. Callers hold that shard's lock, so one shard's changes (an Add's
// evictions and opens, Close, Restore) reach the count in the order they
// happened: applied out of order, a close and a later open would overshoot
// the high-water mark.
func (s *Sharded) noteOpenDelta(d int) {
	if d == 0 {
		return
	}
	n := s.openCount.Add(int64(d))
	for {
		h := s.openHigh.Load()
		if n <= h || s.openHigh.CompareAndSwap(h, n) {
			break
		}
	}
	s.gauge.Add(int64(d))
}

// Close flushes all open sessions across all shards — detection and solving
// fan out on the worker pool — and returns their cleaned entries sorted by
// time. The engine stays readable (Stats, Templates) after Close.
func (s *Sharded) Close() logmodel.Log { return raw(s.CloseParsed()) }

// CloseParsed is Close returning each cleaned entry with its parse result.
func (s *Sharded) CloseParsed() parsedlog.Log {
	outs := make([]parsedlog.Log, len(s.shards))
	parallel.ShardRun(s.cfg.Workers, len(s.shards), func(i int) {
		sh := s.shards[i]
		sh.mu.Lock()
		before := len(sh.open)
		outs[i] = sh.Close()
		s.noteOpenDelta(len(sh.open) - before)
		sh.mu.Unlock()
	})
	var n int
	for _, o := range outs {
		n += len(o)
	}
	out := make(parsedlog.Log, 0, n)
	for _, o := range outs {
		out = append(out, o...)
	}
	sortByTime(out)
	return out
}

// raw is l without its parse results, nil when l is empty.
func raw(l parsedlog.Log) logmodel.Log {
	if len(l) == 0 {
		return nil
	}
	return l.Raw()
}

// Stats merges the per-shard counters. OpenSessionsHighWater is the
// engine's peak of sessions open between calls.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Merge(sh.stats)
		sh.mu.Unlock()
	}
	st.OpenSessionsHighWater = int(s.openHigh.Load())
	return st
}

// Templates returns the per-template statistics, most frequent first.
// Shards partition users, so frequencies and user popularities add exactly;
// one WHERE clause can reach several shards, so DistinctWhere is the size
// of the union of the shards' sets. These are the statistics the batch
// miner computes, over every accepted SELECT, open sessions included.
func (s *Sharded) Templates() []pattern.TemplateStats { return s.templates(true) }

// TemplateCounts is Templates without DistinctWhere, which it leaves zero:
// the count-only read for callers that never look at WHERE clauses.
func (s *Sharded) TemplateCounts() []pattern.TemplateStats { return s.templates(false) }

// templates reads every shard's template table under that shard's lock.
// With where set it also counts each template's distinct WHERE clauses
// without copying a set: a template one shard holds takes that set's size
// (a bot is one user, so its huge SWS set sits on one shard), and only a
// template on several shards is unioned, into one reused scratch set, in a
// second pass that locks one shard at a time again.
func (s *Sharded) templates(where bool) []pattern.TemplateStats {
	idx := map[uint64]int{}
	var out []pattern.TemplateStats
	var holders []int
	for _, sh := range s.shards {
		sh.mu.Lock()
		for fp, a := range sh.templateAgg {
			i, ok := idx[fp]
			if !ok {
				i = len(out)
				idx[fp] = i
				out = append(out, pattern.TemplateStats{Fingerprint: fp, Skeleton: a.skeleton})
				holders = append(holders, 0)
				if where {
					out[i].DistinctWhere = len(a.wcs)
				}
			}
			holders[i]++
			out[i].Frequency += a.count
			out[i].UserPopularity += len(a.users)
		}
		sh.mu.Unlock()
	}
	if where {
		union := map[uint64]struct{}{}
		for i := range out {
			if holders[i] < 2 {
				continue
			}
			clear(union)
			for _, sh := range s.shards {
				sh.mu.Lock()
				if a := sh.templateAgg[out[i].Fingerprint]; a != nil {
					for h := range a.wcs {
						union[h] = struct{}{}
					}
				}
				sh.mu.Unlock()
			}
			out[i].DistinctWhere = len(union)
		}
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
// antipattern instance, the sorted kind names any shard attributed to it.
// Templates never seen inside an instance are absent.
func (s *Sharded) TemplateKinds() map[uint64][]string {
	union := map[uint64]map[antipattern.Kind]struct{}{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for fp, a := range sh.templateAgg {
			for k := range a.kinds {
				if union[fp] == nil {
					union[fp] = map[antipattern.Kind]struct{}{}
				}
				union[fp][k] = struct{}{}
			}
		}
		sh.mu.Unlock()
	}
	out := make(map[uint64][]string, len(union))
	for fp, set := range union {
		ks := make([]string, 0, len(set))
		for k := range set {
			ks = append(ks, string(k))
		}
		sort.Strings(ks)
		out[fp] = ks
	}
	return out
}

// DistinctUsers returns the exact number of distinct users of the entries
// the engine accepted, SELECT or not: over the same entries, the batch
// report's DistinctUsers. Users partition by shard, so it is the sum of the
// shards' set sizes. Each shard is read under its own lock, like Stats.
func (s *Sharded) DistinctUsers() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.users)
		sh.mu.Unlock()
	}
	return n
}

// Sketches is DistinctUsers under the name callers used while the count was
// a sketch's estimate.
func (s *Sharded) Sketches() int { return s.DistinctUsers() }

// RunSharded streams a whole in-memory log through a fresh sharded engine,
// processing partitions concurrently on the worker pool, and returns the
// cleaned log (sorted by time) plus the merged stats. Each partition sees
// its entries in log order and closes sessions on its own watermark, as Add
// does, so the output multiset is the same at every shard count and equals
// the batch pipeline's. The entries skip the MaxFutureSkew guard and leave
// the global watermark unset. A negative session gap is refused
// (Config.Validate).
func RunSharded(l logmodel.Log, cfg ShardedConfig) (logmodel.Log, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	s := NewSharded(cfg)
	out, err := s.run(l)
	return out, s.Stats(), err
}

// run is RunSharded on an engine that has seen no entries.
func (s *Sharded) run(l logmodel.Log) (logmodel.Log, error) {
	n := len(s.shards)
	buckets := make([][]int32, n)
	for i, e := range l {
		b := s.ShardFor(e.User)
		buckets[b] = append(buckets[b], int32(i))
	}
	outs := make([]parsedlog.Log, n)
	errs := make([]error, n)
	parallel.ShardRun(s.cfg.Workers, n, func(i int) {
		sh := s.shards[i]
		for _, idx := range buckets[i] {
			sh.mu.Lock()
			before := len(sh.open)
			emitted, err := sh.Add(l[idx])
			s.noteOpenDelta(len(sh.open) - before)
			sh.mu.Unlock()
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = append(outs[i], emitted...)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outs = append(outs, s.CloseParsed())
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make(logmodel.Log, 0, total)
	for _, o := range outs {
		for _, pe := range o {
			out = append(out, pe.Entry)
		}
	}
	slices.SortStableFunc(out, func(a, b logmodel.Entry) int { return byTime(&a, &b) })
	return out, nil
}
