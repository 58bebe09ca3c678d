package sketch

import "fmt"

// Config switches the sketch set. The zero value enables both sketches: the
// HLL at DefaultPrecision and the SWS evidence, which keeps one summary per
// template with user sets capped at UserCap.
type Config struct {
	// Disabled turns the sketch layer off entirely (New returns nil).
	Disabled bool
}

// Sketches bundles the two summaries one stream shard maintains.
type Sketches struct {
	HLL *HLL
	SWS *SWSAccumulator
}

// New builds the sketch set, or nil when the config disables it — callers
// nil-check once and skip the whole layer.
func New(cfg Config) *Sketches {
	if cfg.Disabled {
		return nil
	}
	return &Sketches{HLL: NewHLL(DefaultPrecision), SWS: NewSWSAccumulator()}
}

// Merge folds another sketch set into s — the cross-shard global view. Both
// sides must agree on the HLL precision (always true for shards built or
// restored from one engine's snapshot).
func (s *Sketches) Merge(o *Sketches) error {
	if o == nil {
		return nil
	}
	if err := s.HLL.Merge(o.HLL); err != nil {
		return err
	}
	s.SWS.Merge(o.SWS)
	return nil
}

// Clone returns a deep copy.
func (s *Sketches) Clone() *Sketches {
	return &Sketches{HLL: s.HLL.Clone(), SWS: s.SWS.Clone()}
}

// SnapshotVersion is the serialization version of Snapshot. Bump it when the
// encoding changes shape incompatibly; Restore refuses versions it does not
// know instead of silently misreading state.
const SnapshotVersion = 1

// Snapshot is the versioned serialized form of one sketch set, embedded in
// the stream's processor snapshot. Snapshots written before the sketch layer
// existed simply lack the field; the stream restores fresh sketches then.
// Older snapshots of this version also carry a "top" block, the state of a
// top-k template tracker that no longer exists; decoding ignores it.
type Snapshot struct {
	Version int         `json:"version"`
	HLL     HLLSnapshot `json:"hll"`
	SWS     SWSSnapshot `json:"sws"`
}

// Snapshot serializes the sketch set (deterministic: all entry lists are
// sorted, the register file is positional).
func (s *Sketches) Snapshot() *Snapshot {
	return &Snapshot{Version: SnapshotVersion, HLL: s.HLL.Snapshot(), SWS: s.SWS.Snapshot()}
}

// Restore rebuilds a sketch set from its snapshot. The snapshot's own HLL
// precision is authoritative: a daemon keeps the accumulated registers
// rather than discarding them, and only a fresh start uses DefaultPrecision.
func Restore(snap *Snapshot) (*Sketches, error) {
	if snap.Version <= 0 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("sketch: snapshot version %d not supported (this build reads ≤ %d)",
			snap.Version, SnapshotVersion)
	}
	hll, err := restoreHLL(snap.HLL)
	if err != nil {
		return nil, err
	}
	sws, err := restoreSWS(snap.SWS)
	if err != nil {
		return nil, err
	}
	return &Sketches{HLL: hll, SWS: sws}, nil
}
