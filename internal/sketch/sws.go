package sketch

import (
	"fmt"
	"sort"

	"sqlclean/internal/pattern"
)

// SWS (sliding-window-search) classification needs three global per-template
// statistics the stream otherwise discards at session close: frequency,
// user popularity and the distinct-WHERE count. The accumulator keeps exactly
// that evidence, one summary per template, so memory grows with the distinct
// templates, not with the log or its time span, while the drain-time
// classification is provably the batch answer:
//
//   - Frequency and the distinct-WHERE hash set are exact and additive
//     (sessions partition the deduped SELECT stream and shards partition the
//     users — every occurrence is folded exactly once, wherever it lands).
//   - The distinct-user set is capped at UserCap, keeping the
//     lexicographically smallest users. The smallest-k of a union equals the
//     smallest-k of the parts' smallest-k sets, so after any merge order
//     |Users| = min(true popularity, UserCap); for any threshold
//     MaxUserPopularity < UserCap the comparison |Users| ≤ threshold is
//     therefore exact even though the set itself is truncated.
//
// Classification applies pattern.IsSWS to this evidence, so equality with
// the batch pipeline is by construction, not by reimplementation.

// UserCap bounds each template's distinct-user set. The classification is
// exact for every MaxUserPopularity below this; the paper's Table 8 sweeps
// popularity 1..16, so 32 covers it with margin.
const UserCap = 32

// Evidence is one template's accumulated SWS inputs.
type Evidence struct {
	// Freq is the exact number of (deduplicated SELECT) occurrences.
	Freq int
	// Users holds the lexicographically smallest distinct users, sorted,
	// capped at UserCap.
	Users []string
	// WCs is the exact set of distinct WHERE-clause hashes
	// (pattern.HashWhere), matching the batch miner's DistinctWhere.
	WCs map[uint64]struct{}
}

func newEvidence() *Evidence { return &Evidence{WCs: map[uint64]struct{}{}} }

// observe folds one occurrence in.
func (ev *Evidence) observe(user string, wcHash uint64, userCap int) {
	ev.Freq++
	ev.addUser(user, userCap)
	ev.WCs[wcHash] = struct{}{}
}

// addUser inserts user into the sorted capped set.
func (ev *Evidence) addUser(user string, userCap int) {
	i := sort.SearchStrings(ev.Users, user)
	if i < len(ev.Users) && ev.Users[i] == user {
		return
	}
	if len(ev.Users) >= userCap {
		if i >= userCap {
			return // larger than everything kept
		}
		ev.Users = ev.Users[:userCap-1] // drop the largest to make room
	}
	ev.Users = append(ev.Users, "")
	copy(ev.Users[i+1:], ev.Users[i:])
	ev.Users[i] = user
}

// merge folds other into ev (set union, re-capped).
func (ev *Evidence) merge(other *Evidence, userCap int) {
	ev.Freq += other.Freq
	for _, u := range other.Users {
		ev.addUser(u, userCap)
	}
	for wc := range other.WCs {
		ev.WCs[wc] = struct{}{}
	}
}

// stats states the evidence in the batch miner's terms.
func (ev *Evidence) stats(fp uint64) pattern.TemplateStats {
	return pattern.TemplateStats{
		Fingerprint:    fp,
		Frequency:      ev.Freq,
		UserPopularity: len(ev.Users),
		DistinctWhere:  len(ev.WCs),
	}
}

func (ev *Evidence) clone() *Evidence {
	c := &Evidence{Freq: ev.Freq, Users: append([]string(nil), ev.Users...), WCs: make(map[uint64]struct{}, len(ev.WCs))}
	for wc := range ev.WCs {
		c.WCs[wc] = struct{}{}
	}
	return c
}

// SWSAccumulator gathers the SWS evidence of every template, keyed by
// template fingerprint. Not safe for concurrent use (the owning stream
// shard serializes access, like all its state).
type SWSAccumulator struct {
	byFP map[uint64]*Evidence
}

// NewSWSAccumulator returns an empty accumulator.
func NewSWSAccumulator() *SWSAccumulator {
	return &SWSAccumulator{byFP: map[uint64]*Evidence{}}
}

// Observe folds one template occurrence in.
func (a *SWSAccumulator) Observe(fp uint64, user string, wcHash uint64) {
	a.evidence(fp).observe(user, wcHash, UserCap)
}

// evidence returns the template's evidence, creating it on first use.
func (a *SWSAccumulator) evidence(fp uint64) *Evidence {
	ev, ok := a.byFP[fp]
	if !ok {
		ev = newEvidence()
		a.byFP[fp] = ev
	}
	return ev
}

// Classify runs the batch SWS predicate over the evidence and returns the
// SWS templates and the number of occurrences they cover. totalSelects must
// be the stream's deduplicated SELECT count; once every session has closed
// (drain), the set is bit-identical to pattern.ClassifySWS over the batch
// pipeline's templates, provided opt.MaxUserPopularity < UserCap (see the
// cap argument above).
func (a *SWSAccumulator) Classify(totalSelects int, opt pattern.SWSOptions) (sws map[uint64]bool, queries int) {
	sws = map[uint64]bool{}
	for fp, ev := range a.byFP {
		if pattern.IsSWS(ev.stats(fp), totalSelects, opt) {
			sws[fp] = true
			queries += ev.Freq
		}
	}
	return sws, queries
}

// Stats returns one template's SWS statistics (zero counts for a template
// with no evidence).
func (a *SWSAccumulator) Stats(fp uint64) pattern.TemplateStats {
	if ev, ok := a.byFP[fp]; ok {
		return ev.stats(fp)
	}
	return pattern.TemplateStats{Fingerprint: fp}
}

// Merge folds another accumulator into a.
func (a *SWSAccumulator) Merge(o *SWSAccumulator) {
	if o == nil {
		return
	}
	for fp, ev := range o.byFP {
		if g, ok := a.byFP[fp]; ok {
			g.merge(ev, UserCap)
		} else {
			a.byFP[fp] = ev.clone()
		}
	}
}

// Clone returns a deep copy.
func (a *SWSAccumulator) Clone() *SWSAccumulator {
	c := &SWSAccumulator{byFP: make(map[uint64]*Evidence, len(a.byFP))}
	for fp, ev := range a.byFP {
		c.byFP[fp] = ev.clone()
	}
	return c
}

// EvidenceSnapshot is one template's serialized evidence (users and WHERE
// hashes sorted for a deterministic encoding).
type EvidenceSnapshot struct {
	Fingerprint uint64   `json:"fingerprint"`
	Freq        int      `json:"freq"`
	Users       []string `json:"users,omitempty"`
	WCs         []uint64 `json:"wcs,omitempty"`
}

// SWSSnapshot serializes the accumulator. Windows is read only: snapshots
// written while the evidence was still split into event-time windows carry
// part of it there, and restoring folds it into the one summary per
// template.
type SWSSnapshot struct {
	UserCap  int                `json:"user_cap"`
	Evidence []EvidenceSnapshot `json:"base,omitempty"`
	Windows  []struct {
		Evidence []EvidenceSnapshot `json:"evidence,omitempty"`
	} `json:"windows,omitempty"`
}

// Snapshot serializes the accumulator.
func (a *SWSAccumulator) Snapshot() SWSSnapshot {
	s := SWSSnapshot{UserCap: UserCap}
	if len(a.byFP) == 0 {
		// nil, not an empty slice: the JSON round trip (omitempty) must be
		// the identity on snapshots.
		return s
	}
	s.Evidence = make([]EvidenceSnapshot, 0, len(a.byFP))
	for fp, ev := range a.byFP {
		es := EvidenceSnapshot{Fingerprint: fp, Freq: ev.Freq, Users: append([]string(nil), ev.Users...)}
		for wc := range ev.WCs {
			es.WCs = append(es.WCs, wc)
		}
		sort.Slice(es.WCs, func(i, j int) bool { return es.WCs[i] < es.WCs[j] })
		s.Evidence = append(s.Evidence, es)
	}
	sort.Slice(s.Evidence, func(i, j int) bool { return s.Evidence[i].Fingerprint < s.Evidence[j].Fingerprint })
	return s
}

// restoreSWS rebuilds an accumulator from its snapshot, folding any
// windowed evidence into the per-template summaries. A snapshot whose user
// sets were truncated below UserCap cannot be restored exactly, so it is
// refused; zero is the cap of every snapshot that predates the field.
func restoreSWS(s SWSSnapshot) (*SWSAccumulator, error) {
	if s.UserCap != 0 && s.UserCap < UserCap {
		return nil, fmt.Errorf("sketch: SWS snapshot user cap %d is below this build's %d", s.UserCap, UserCap)
	}
	a := NewSWSAccumulator()
	fold := func(snaps []EvidenceSnapshot) {
		for _, es := range snaps {
			ev := a.evidence(es.Fingerprint)
			ev.Freq += es.Freq
			for _, u := range es.Users {
				ev.addUser(u, UserCap)
			}
			for _, wc := range es.WCs {
				ev.WCs[wc] = struct{}{}
			}
		}
	}
	fold(s.Evidence)
	for _, w := range s.Windows {
		fold(w.Evidence)
	}
	return a, nil
}
