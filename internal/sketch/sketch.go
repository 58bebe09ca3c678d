package sketch

import "fmt"

// Config sizes the sketch set. The zero value enables all three sketches
// with the package defaults; Disabled opts the whole layer out. The SWS
// evidence has nothing to size: it keeps one summary per template, with
// user sets capped at UserCap.
type Config struct {
	// Disabled turns the sketch layer off entirely (New returns nil).
	Disabled bool
	// HLLPrecision is the distinct-identity counter's p (2^p registers);
	// 0 selects DefaultPrecision (14).
	HLLPrecision int
	// TopK is the SpaceSaving slot capacity; 0 selects DefaultTopKCapacity.
	TopK int
}

// Sketches bundles the three summaries one stream processor maintains.
type Sketches struct {
	HLL *HLL
	Top *SpaceSaving
	SWS *SWSAccumulator
}

// New builds the sketch set, or nil when the config disables it — callers
// nil-check once and skip the whole layer.
func New(cfg Config) *Sketches {
	if cfg.Disabled {
		return nil
	}
	return &Sketches{
		HLL: NewHLL(cfg.HLLPrecision),
		Top: NewSpaceSaving(cfg.TopK),
		SWS: NewSWSAccumulator(),
	}
}

// Merge folds another sketch set into s — the cross-shard global view. Both
// sides must agree on the HLL precision (always true for shards built from
// one config).
func (s *Sketches) Merge(o *Sketches) error {
	if o == nil {
		return nil
	}
	if err := s.HLL.Merge(o.HLL); err != nil {
		return err
	}
	s.Top.Merge(o.Top)
	s.SWS.Merge(o.SWS)
	return nil
}

// Clone returns a deep copy.
func (s *Sketches) Clone() *Sketches {
	return &Sketches{HLL: s.HLL.Clone(), Top: s.Top.Clone(), SWS: s.SWS.Clone()}
}

// SnapshotVersion is the serialization version of Snapshot. Bump it when the
// encoding changes shape incompatibly; Restore refuses versions it does not
// know instead of silently misreading state.
const SnapshotVersion = 1

// Snapshot is the versioned serialized form of one sketch set, embedded in
// the stream's processor snapshot. Snapshots written before the sketch layer
// existed simply lack the field; the stream restores fresh sketches then.
type Snapshot struct {
	Version int         `json:"version"`
	HLL     HLLSnapshot `json:"hll"`
	Top     TopSnapshot `json:"top"`
	SWS     SWSSnapshot `json:"sws"`
}

// Snapshot serializes the sketch set (deterministic: all entry lists are
// sorted, the register file is positional).
func (s *Sketches) Snapshot() *Snapshot {
	return &Snapshot{
		Version: SnapshotVersion,
		HLL:     s.HLL.Snapshot(),
		Top:     s.Top.Snapshot(),
		SWS:     s.SWS.Snapshot(),
	}
}

// Restore rebuilds a sketch set from its snapshot. The snapshot's own
// parameters (precision, capacity) are authoritative — a daemon restarted
// with different sketch flags keeps the accumulated state rather than
// discarding it; new parameters apply from the next fresh start.
func Restore(snap *Snapshot) (*Sketches, error) {
	if snap.Version <= 0 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("sketch: snapshot version %d not supported (this build reads ≤ %d)",
			snap.Version, SnapshotVersion)
	}
	hll, err := restoreHLL(snap.HLL)
	if err != nil {
		return nil, err
	}
	top, err := restoreSpaceSaving(snap.Top)
	if err != nil {
		return nil, err
	}
	sws, err := restoreSWS(snap.SWS)
	if err != nil {
		return nil, err
	}
	return &Sketches{HLL: hll, Top: top, SWS: sws}, nil
}
