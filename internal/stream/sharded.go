// Sharded streaming: the multi-core variant of Processor. The serial stream
// exploits that detection windows are confined to one user session; sharding
// exploits the next invariant out: *users* are independent too. Entries are
// partitioned by user hash into independent shard processors — dedup keys
// (user, statement) and sessions (per user) both live wholly inside one
// shard — so shards only ever synchronize on two things: the shared
// statement-parse cache (sharded + singleflight itself) and the global event
// watermark that proves silence across partitions.
//
// Ordering contract: each shard must see its own entries in time order (the
// serial Processor's contract, now per partition). Cross-shard skew is
// tolerated: the coordinator evicts a silent session only when the global
// watermark is a full session gap *plus* the allowed lateness past the
// session's last activity, so a partition lagging by less than the lateness
// budget never has a session split under it.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parallel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/sketch"
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
	// SweepEvery is the number of Adds between cross-shard watermark sweeps
	// (0 selects 256). Smaller values evict silent sessions in quiet shards
	// sooner at the cost of more cross-shard locking.
	SweepEvery int
	// AllowedLateness is the extra silence required before a *cross-shard*
	// sweep closes a session, protecting sessions in partitions whose
	// ingestion lags the global watermark. Zero selects the session gap
	// (i.e. cross-shard eviction after 2× gap of silence); shard-local
	// eviction stays at exactly one gap, like the serial Processor.
	AllowedLateness time.Duration
	// MaxFutureSkew bounds how far one entry may advance the global
	// watermark past its current value. Without a bound, a single corrupted
	// far-future timestamp drags the watermark ahead of every live session,
	// so the next sweep closes them all and subsequent in-order entries are
	// rejected as late. Entries beyond the bound are rejected with
	// ErrFutureSkew (and counted as stream_rejected_future_skew_total when
	// Metrics is set) instead of poisoning the watermark. Zero disables the
	// bound — batch replays of historic logs legitimately jump the event
	// clock by months.
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
	if c.SweepEvery <= 0 {
		c.SweepEvery = 256
	}
	if c.AllowedLateness <= 0 {
		c.AllowedLateness = c.SessionGap
	}
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
// restore per-shard processors onto the same shards in the next process, and
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

type shardSlot struct {
	mu sync.Mutex
	p  *Processor
}

// Sharded is a sharded streaming engine. All methods are safe for concurrent
// use; per-user time ordering must be preserved by the caller (route one
// user's entries through one goroutine, or use RunSharded / a server queue
// per shard).
type Sharded struct {
	cfg    ShardedConfig
	parser *parsedlog.Parser
	shards []*shardSlot
	mask   uint64

	// watermarkNS is the global max event time (unix nanos) across shards.
	watermarkNS atomic.Int64
	// adds triggers the periodic cross-shard sweep.
	adds atomic.Int64
	// openCount/openHigh track global open sessions exactly (each delta is
	// computed under the owning shard's lock).
	openCount atomic.Int64
	openHigh  atomic.Int64

	// gauge is the registry's stream_open_sessions gauge, owned globally by
	// the engine: per-shard processors get a detached gauge so their Set
	// calls cannot clobber each other. Nil without Config.Metrics.
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
		parser: cfg.Parser,
		shards: make([]*shardSlot, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	s.watermarkNS.Store(math.MinInt64)
	if m := cfg.Metrics; m != nil {
		s.gauge = m.Gauge("stream_open_sessions")
		s.mSkew = m.Counter("stream_rejected_future_skew_total")
	}
	for i := range s.shards {
		p := New(cfg.Config)
		if p.met.open != nil {
			// Detach the shard's open-session gauge: counters and histograms
			// are additive across shards, an instantaneous gauge is not.
			p.met.open = new(obs.Gauge)
		}
		s.shards[i] = &shardSlot{p: p}
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

// OpenSessions returns the number of sessions currently buffered across all
// shards.
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
		out[i] = sh.p.Watermark()
		sh.mu.Unlock()
	}
	return out
}

// Add offers one entry, routing it to its user's shard. Cleaned entries of
// any session that closed as a consequence (in this shard, or in others via
// the periodic watermark sweep) are returned, sorted by time.
func (s *Sharded) Add(e logmodel.Entry) (logmodel.Log, error) {
	return s.AddShard(s.ShardFor(e.User), e)
}

// AddShard is Add for a caller that already routed the entry (a per-shard
// ingest queue). i must equal ShardFor(e.User) for dedup and sessionization
// to see the user's whole stream.
func (s *Sharded) AddShard(i int, e logmodel.Entry) (logmodel.Log, error) {
	ns := e.Time.UnixNano()
	if s.cfg.MaxFutureSkew > 0 {
		// Guard the global watermark before raising it: one bogus far-future
		// timestamp must not close every open session in every shard.
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
	before := len(sh.p.open)
	out, err := sh.p.Add(e)
	s.noteOpenDelta(len(sh.p.open) - before)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if s.adds.Add(1)%int64(s.cfg.SweepEvery) == 0 {
		if more := s.sweep(); len(more) > 0 {
			out = append(out, more...)
			sortByTime(out)
		}
	}
	return out, nil
}

// AddShardBatch applies a batch of already-routed entries to shard i in
// order, invoking done after each with the entry's index, emitted output and
// error. It is semantically identical to calling AddShard once per entry —
// a faithful per-entry loop, so per-user ordering, the watermark raise, the
// skew guard and the periodic cross-shard sweep all behave exactly as they
// would under per-entry dispatch. Batch callers (the daemon's shard drains)
// get one call site per queue batch without weakening any invariant.
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
// count. Callers hold that shard's lock, so a sweep's close and a later
// Add's reopen of the same session reach the count in the order they
// happened: applied out of order, the pair would overshoot the high-water
// mark.
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

// sweep advances every shard to the global watermark minus the allowed
// lateness, closing sessions whose silence only other partitions can prove.
func (s *Sharded) sweep() logmodel.Log {
	wm := s.watermarkNS.Load()
	if wm == math.MinInt64 {
		return nil
	}
	t := time.Unix(0, wm).UTC().Add(-s.cfg.AllowedLateness)
	var out logmodel.Log
	for _, sh := range s.shards {
		sh.mu.Lock()
		before := len(sh.p.open)
		closed := sh.p.Advance(t)
		s.noteOpenDelta(len(sh.p.open) - before)
		sh.mu.Unlock()
		out = append(out, closed...)
	}
	return out
}

// Close flushes all open sessions across all shards — detection and solving
// fan out on the worker pool — and returns their cleaned entries sorted by
// time. The engine stays readable (Stats, Templates) after Close.
func (s *Sharded) Close() logmodel.Log {
	outs := make([]logmodel.Log, len(s.shards))
	parallel.ShardRun(s.cfg.Workers, len(s.shards), func(i int) {
		sh := s.shards[i]
		sh.mu.Lock()
		before := len(sh.p.open)
		outs[i] = sh.p.Close()
		s.noteOpenDelta(len(sh.p.open) - before)
		sh.mu.Unlock()
	})
	var n int
	for _, o := range outs {
		n += len(o)
	}
	out := make(logmodel.Log, 0, n)
	for _, o := range outs {
		out = append(out, o...)
	}
	sortByTime(out)
	return out
}

// Stats merges the per-shard counters. OpenSessionsHighWater is the exact
// global peak (tracked by the coordinator), not the sum of per-shard peaks.
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Merge(sh.p.Stats())
		sh.mu.Unlock()
	}
	st.OpenSessionsHighWater = int(s.openHigh.Load())
	return st
}

// Templates merges the per-shard template statistics, most frequent first.
// Shards partition users, so frequencies and user popularities add exactly.
func (s *Sharded) Templates() []pattern.TemplateStats {
	agg := map[uint64]*pattern.TemplateStats{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		ts := sh.p.Templates()
		sh.mu.Unlock()
		for _, t := range ts {
			if a, ok := agg[t.Fingerprint]; ok {
				a.Frequency += t.Frequency
				a.UserPopularity += t.UserPopularity
			} else {
				c := t
				agg[t.Fingerprint] = &c
			}
		}
	}
	out := make([]pattern.TemplateStats, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return out[i].Skeleton < out[j].Skeleton
	})
	return out
}

// TemplateKinds merges the per-shard verdict maps: a template carries every
// kind any shard attributed to it, sorted.
func (s *Sharded) TemplateKinds() map[uint64][]string {
	union := map[uint64]map[string]struct{}{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		tk := sh.p.TemplateKinds()
		sh.mu.Unlock()
		for fp, ks := range tk {
			set := union[fp]
			if set == nil {
				set = map[string]struct{}{}
				union[fp] = set
			}
			for _, k := range ks {
				set[k] = struct{}{}
			}
		}
	}
	out := make(map[uint64][]string, len(union))
	for fp, set := range union {
		ks := make([]string, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[fp] = ks
	}
	return out
}

// Sketches returns the merged cross-shard sketch view as a deep clone (nil
// when the layer is disabled). HLL registers union exactly; SpaceSaving merges
// in shard-index order (deterministic, and sound: merged counts still bracket
// the truth); SWS evidence unions by window. The clone is a consistent-enough
// global read: each shard is locked while copied, like Stats.
func (s *Sharded) Sketches() *sketch.Sketches {
	var merged *sketch.Sketches
	for _, sh := range s.shards {
		sh.mu.Lock()
		sk := sh.p.Sketches()
		if sk != nil {
			if merged == nil {
				merged = sk.Clone()
			} else {
				// Same config on every shard, so the HLL precisions agree and
				// Merge cannot fail.
				_ = merged.Merge(sk)
			}
		}
		sh.mu.Unlock()
	}
	return merged
}

// ClassifySWS drains the merged windowed SWS evidence into a classification
// using the engine-wide accepted-SELECT count — the sharded counterpart of
// Processor.ClassifySWS. Nil when sketches are disabled.
func (s *Sharded) ClassifySWS(opt pattern.SWSOptions) map[uint64]bool {
	sk := s.Sketches()
	if sk == nil {
		return nil
	}
	return sk.SWS.Classify(s.Stats().Selects, opt)
}

// RunSharded streams a whole in-memory log through a fresh sharded engine,
// processing partitions concurrently on the worker pool, and returns the
// cleaned log (sorted by time) plus the merged stats. Cross-shard watermark
// sweeps are skipped — each partition's own watermark already proves every
// eviction, since a partition sees its entries in order — so the output
// multiset is identical to the serial stream.Run and to the batch pipeline.
func RunSharded(l logmodel.Log, cfg ShardedConfig) (logmodel.Log, Stats, error) {
	s := NewSharded(cfg)
	n := len(s.shards)
	buckets := make([][]int32, n)
	for i, e := range l {
		b := s.ShardFor(e.User)
		buckets[b] = append(buckets[b], int32(i))
	}
	outs := make([]logmodel.Log, n)
	errs := make([]error, n)
	parallel.ShardRun(cfg.Workers, n, func(i int) {
		sh := s.shards[i]
		for _, idx := range buckets[i] {
			sh.mu.Lock()
			before := len(sh.p.open)
			emitted, err := sh.p.Add(l[idx])
			s.noteOpenDelta(len(sh.p.open) - before)
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
			return nil, s.Stats(), err
		}
	}
	final := s.Close()
	total := len(final)
	for _, o := range outs {
		total += len(o)
	}
	out := make(logmodel.Log, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	out = append(out, final...)
	sortByTime(out)
	return out, s.Stats(), nil
}
