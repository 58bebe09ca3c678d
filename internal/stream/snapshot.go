// Snapshot / restore of streaming state. The daemon's durability story is
// WAL + checkpoint: the journal replays every accepted entry since the last
// checkpoint, and the checkpoint is exactly the state serialized here — the
// merged counters, the open sessions (raw entries; parse results are
// recomputed on restore, the parser is deterministic), the live slice of the
// dedup window, the template aggregates, the user sets and the watermarks.
// "Query Log Compression for Workload Analytics" (Xie et al. 2018) observes
// that log-workload state is dominated by a small set of templates, which is
// why this whole structure stays small enough to checkpoint cheaply even
// after months of traffic: sessions close within minutes, the dedup window
// is pruned to the reachable horizon, and templates and users grow with the
// number of distinct query shapes and identities, not with traffic.
package stream

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/sqlast"
)

// EntrySnapshot is one raw log entry in serialized form (times as Unix
// nanoseconds so no precision is lost across the JSON round trip).
type EntrySnapshot struct {
	Seq       int64  `json:"seq"`
	TimeNS    int64  `json:"time_ns"`
	User      string `json:"user,omitempty"`
	Session   string `json:"session,omitempty"`
	Rows      int64  `json:"rows"`
	Statement string `json:"statement"`
}

func snapEntry(e logmodel.Entry) EntrySnapshot {
	return EntrySnapshot{
		Seq: e.Seq, TimeNS: e.Time.UnixNano(),
		User: e.User, Session: e.Session, Rows: e.Rows, Statement: e.Statement,
	}
}

func (s EntrySnapshot) entry() logmodel.Entry {
	return logmodel.Entry{
		Seq: s.Seq, Time: time.Unix(0, s.TimeNS).UTC(),
		User: s.User, Session: s.Session, Rows: s.Rows, Statement: s.Statement,
	}
}

// SessionSnapshot is one open session.
type SessionSnapshot struct {
	User    string          `json:"user"`
	Label   string          `json:"label,omitempty"`
	LastNS  int64           `json:"last_ns"`
	Entries []EntrySnapshot `json:"entries"`
}

// DedupSnapshot is one live slot of the duplicate window.
type DedupSnapshot struct {
	User      string `json:"user,omitempty"`
	Statement string `json:"statement"`
	LastNS    int64  `json:"last_ns"`
}

// TemplateSnapshot is one template aggregate.
type TemplateSnapshot struct {
	Fingerprint uint64   `json:"fingerprint"`
	Skeleton    string   `json:"skeleton"`
	Count       int      `json:"count"`
	Users       []string `json:"users"`
	// Kinds are the antipattern kinds attributed to the template so far
	// (absent in snapshots written before verdict tracking existed).
	Kinds []string `json:"kinds,omitempty"`
	// WCs are the distinct WHERE-clause hashes, sorted. Snapshots written
	// while SWS evidence lived beside the table lack them; Restore rebuilds
	// them from that evidence and from the open sessions.
	WCs []uint64 `json:"wcs,omitempty"`
}

// ShardSnapshot is the full serializable state of one shard. Its
// Stats.OpenSessionsHighWater is unused: the engine's peak is
// ShardedSnapshot.OpenHigh.
type ShardSnapshot struct {
	Stats Stats `json:"stats"`
	// WatermarkValid distinguishes "never saw an entry" from any real time.
	WatermarkValid bool               `json:"watermark_valid"`
	WatermarkNS    int64              `json:"watermark_ns"`
	Open           []SessionSnapshot  `json:"open,omitempty"`
	Dedup          []DedupSnapshot    `json:"dedup,omitempty"`
	Templates      []TemplateSnapshot `json:"templates,omitempty"`
	// Users is the shard's user set, sorted. Snapshots written while the
	// engine counted users with a HyperLogLog lack it; Restore rebuilds the
	// set from the template rows and the open sessions (see Restore).
	Users []string `json:"users,omitempty"`
	// Sketches is read only: the block older snapshots kept beside the
	// table. Its HLL is ignored; its SWS evidence's WHERE-clause hashes are
	// folded into the template rows on restore. Nothing writes it any more.
	Sketches *legacySketches `json:"sketches,omitempty"`
}

// legacySketches is the part of an older snapshot's sketch block that the
// template table cannot rebuild: each template's distinct WHERE-clause
// hashes, in a base list and, in snapshots written while the evidence was
// split into event-time windows, per window. Its HLL, its counts and its
// user sets are not read.
type legacySketches struct {
	SWS *struct {
		Base    []templateWheres `json:"base,omitempty"`
		Windows []struct {
			Evidence []templateWheres `json:"evidence,omitempty"`
		} `json:"windows,omitempty"`
	} `json:"sws,omitempty"`
}

// templateWheres is one template's WHERE-clause hashes in SWS evidence.
type templateWheres struct {
	Fingerprint uint64   `json:"fingerprint"`
	WCs         []uint64 `json:"wcs,omitempty"`
}

// evidence returns the SWS evidence's base list followed by every window's
// (nil for a snapshot without SWS evidence).
func (l *legacySketches) evidence() []templateWheres {
	if l == nil || l.SWS == nil {
		return nil
	}
	out := slices.Clone(l.SWS.Base)
	for _, w := range l.SWS.Windows {
		out = append(out, w.Evidence...)
	}
	return out
}

// Snapshot serializes the shard's state. The dedup window is cut to
// entries still reachable by a future in-order entry: anything older than
// watermark − gap − threshold can never match again, so a restore without it
// is byte-identical in outcome. (The live map drops such slots only when it
// has doubled, so it may still hold some.)
func (sh *shard) Snapshot() ShardSnapshot {
	s := ShardSnapshot{Stats: sh.stats}
	if !sh.watermark.IsZero() {
		s.WatermarkValid = true
		s.WatermarkNS = sh.watermark.UnixNano()
	}
	for _, os := range sh.open {
		ss := SessionSnapshot{User: os.user, Label: os.label, LastNS: os.last.UnixNano()}
		for _, pe := range os.entries {
			ss.Entries = append(ss.Entries, snapEntry(pe.Entry))
		}
		s.Open = append(s.Open, ss)
	}
	sort.Slice(s.Open, func(i, j int) bool { return s.Open[i].User < s.Open[j].User })
	horizon := sh.dedupHorizon()
	for k, last := range sh.lastSeen {
		if last.Before(horizon) {
			continue
		}
		s.Dedup = append(s.Dedup, DedupSnapshot{User: k.user, Statement: k.stmt, LastNS: last.UnixNano()})
	}
	sort.Slice(s.Dedup, func(i, j int) bool {
		if s.Dedup[i].User != s.Dedup[j].User {
			return s.Dedup[i].User < s.Dedup[j].User
		}
		return s.Dedup[i].Statement < s.Dedup[j].Statement
	})
	for fp, a := range sh.templateAgg {
		users := make([]string, 0, len(a.users))
		for u := range a.users {
			users = append(users, u)
		}
		sort.Strings(users)
		var kinds []string
		for k := range a.kinds {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		var wcs []uint64
		for h := range a.wcs {
			wcs = append(wcs, h)
		}
		slices.Sort(wcs)
		s.Templates = append(s.Templates, TemplateSnapshot{
			Fingerprint: fp, Skeleton: a.skeleton, Count: a.count, Users: users, Kinds: kinds, WCs: wcs,
		})
	}
	sort.Slice(s.Templates, func(i, j int) bool { return s.Templates[i].Fingerprint < s.Templates[j].Fingerprint })
	for u := range sh.users {
		s.Users = append(s.Users, u)
	}
	sort.Strings(s.Users)
	return s
}

// Restore replaces the shard's state with a snapshot. Open-session entries
// are re-parsed through the engine's parser (statement texts are the
// canonical state; parse results are derived and deterministic).
//
// A template row's WHERE-clause set is its wcs list plus, from snapshots
// that kept SWS evidence beside the table, the evidence's hashes (sessions
// closed before the snapshot) and the open sessions' (the rest). The engine
// records every accepted SELECT in the table before it adds the entry to a
// session, so evidence or an open-session entry without a template row is
// refused, as is an open-session entry that is not a SELECT.
//
// The user set is the users list ∪ the template rows' users ∪ the open
// sessions' users, whatever wrote the snapshot. A snapshot without the list
// (written while users were counted by an HLL) so restores every user that
// sent a SELECT; a user that had sent only other statements is counted
// again only once it sends another entry.
func (sh *shard) Restore(s ShardSnapshot) error {
	sh.stats = s.Stats
	// The snapshot owner may reuse the map, so copy it; an empty one stays
	// nil, as a JSON round trip leaves it.
	sh.stats.Antipatterns = nil
	if len(s.Stats.Antipatterns) > 0 {
		sh.stats.Antipatterns = maps.Clone(s.Stats.Antipatterns)
	}
	sh.watermark = time.Time{}
	if s.WatermarkValid {
		sh.watermark = time.Unix(0, s.WatermarkNS).UTC()
	}
	sh.users = make(map[string]struct{}, len(s.Users))
	for _, u := range s.Users {
		sh.users[u] = struct{}{}
	}
	sh.templateAgg = make(map[uint64]*templateAgg, len(s.Templates))
	for _, t := range s.Templates {
		a := &templateAgg{
			skeleton: t.Skeleton, count: t.Count,
			users: make(map[string]struct{}, len(t.Users)), wcs: make(map[uint64]struct{}, len(t.WCs)),
		}
		for _, u := range t.Users {
			a.users[u] = struct{}{}
			sh.users[u] = struct{}{}
		}
		for _, h := range t.WCs {
			a.wcs[h] = struct{}{}
		}
		if len(t.Kinds) > 0 {
			a.kinds = make(map[antipattern.Kind]struct{}, len(t.Kinds))
			for _, k := range t.Kinds {
				a.kinds[antipattern.Kind(k)] = struct{}{}
			}
		}
		sh.templateAgg[t.Fingerprint] = a
	}
	for _, ev := range s.Sketches.evidence() {
		if err := sh.foldWheres(ev.Fingerprint, ev.WCs...); err != nil {
			return err
		}
	}
	sh.open = make(map[string]*openSession, len(s.Open))
	sh.minLast = time.Time{}
	for _, ss := range s.Open {
		if len(ss.Entries) == 0 {
			return fmt.Errorf("stream: snapshot session for %q has no entries", ss.User)
		}
		os := &openSession{user: ss.User, label: ss.Label, last: time.Unix(0, ss.LastNS).UTC()}
		sh.users[ss.User] = struct{}{}
		for _, es := range ss.Entries {
			pe := sh.cfg.Parser.ParseEntry(es.entry())
			if pe.Class != sqlast.ClassSelect || pe.Info == nil {
				return fmt.Errorf("stream: snapshot session for %q holds %q, which is not a SELECT", ss.User, es.Statement)
			}
			if err := sh.foldWheres(pe.Info.Fingerprint, pe.Info.WCHash); err != nil {
				return err
			}
			os.entries = append(os.entries, pe)
		}
		sh.open[ss.User] = os
	}
	sh.lastSeen = make(map[dupKey]time.Time, len(s.Dedup))
	for _, d := range s.Dedup {
		sh.lastSeen[dupKey{user: d.User, stmt: d.Statement}] = time.Unix(0, d.LastNS).UTC()
	}
	sh.dedupPruned = len(sh.lastSeen)
	return nil
}

// foldWheres adds restored WHERE-clause hashes to a template's row.
func (sh *shard) foldWheres(fp uint64, hashes ...uint64) error {
	a := sh.templateAgg[fp]
	if a == nil {
		return fmt.Errorf("stream: snapshot has WHERE clauses for template %d, which has no row", fp)
	}
	for _, h := range hashes {
		a.wcs[h] = struct{}{}
	}
	return nil
}

// ShardedSnapshot is the full serializable state of a Sharded engine.
type ShardedSnapshot struct {
	// Shards pins the partition count: restore requires the same count, or
	// per-shard state (dedup windows, open sessions) would land on the wrong
	// partitions. Routing itself is deterministic (see userHash).
	Shards int `json:"shards"`
	// WatermarkValid/WatermarkNS carry the global event-time watermark.
	WatermarkValid bool            `json:"watermark_valid"`
	WatermarkNS    int64           `json:"watermark_ns"`
	OpenHigh       int64           `json:"open_sessions_high_water"`
	Procs          []ShardSnapshot `json:"procs"`
}

// Snapshot serializes every shard plus the coordinator state. The caller
// must ensure the engine is quiescent (no concurrent Adds) if the snapshot
// is to be consistent with an external position such as a journal LSN; the
// method itself is safe to call concurrently.
func (s *Sharded) Snapshot() ShardedSnapshot {
	snap := ShardedSnapshot{
		Shards:   len(s.shards),
		OpenHigh: s.openHigh.Load(),
	}
	if wm := s.watermarkNS.Load(); wm != math.MinInt64 {
		snap.WatermarkValid = true
		snap.WatermarkNS = wm
	}
	snap.Procs = make([]ShardSnapshot, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		snap.Procs[i] = sh.Snapshot()
		sh.mu.Unlock()
	}
	return snap
}

// Restore replaces the engine's state with a snapshot taken by an engine
// with the same shard count.
func (s *Sharded) Restore(snap ShardedSnapshot) error {
	if snap.Shards != len(s.shards) {
		return fmt.Errorf("stream: snapshot has %d shards, engine has %d (restart with -shards %d)",
			snap.Shards, len(s.shards), snap.Shards)
	}
	if len(snap.Procs) != snap.Shards {
		return fmt.Errorf("stream: snapshot carries %d shard states for %d shards", len(snap.Procs), snap.Shards)
	}
	var open int64
	for i, sh := range s.shards {
		sh.mu.Lock()
		err := sh.Restore(snap.Procs[i])
		if err == nil {
			err = s.checkUsers(i, sh.users)
		}
		n := len(sh.open)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("stream: restore shard %d: %w", i, err)
		}
		open += int64(n)
	}
	if snap.WatermarkValid {
		s.watermarkNS.Store(snap.WatermarkNS)
	} else {
		s.watermarkNS.Store(math.MinInt64)
	}
	s.openCount.Store(open)
	s.openHigh.Store(snap.OpenHigh)
	s.gauge.Set(open)
	return nil
}

// checkUsers refuses a restored user set holding a user that routes to
// another shard: DistinctUsers sums the shards' sets, which counts each user
// once only while users partition by shard.
func (s *Sharded) checkUsers(i int, users map[string]struct{}) error {
	for u := range users {
		if j := s.ShardFor(u); j != i {
			return fmt.Errorf("snapshot has user %q, which routes to shard %d", u, j)
		}
	}
	return nil
}
