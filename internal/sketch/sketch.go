package sketch

import (
	"fmt"
	"slices"
)

// SnapshotVersion is the serialization version of Snapshot. Bump it when the
// encoding changes shape incompatibly; Restore refuses versions it does not
// know instead of silently misreading state.
const SnapshotVersion = 1

// Snapshot is the versioned serialized form of one shard's sketch, its HLL,
// embedded in the stream's shard snapshot. Snapshots written before the
// sketch layer existed simply lack the field; the stream restores a fresh
// HLL then. Older snapshots of this version also carry a "top" block, the
// state of a top-k template tracker that no longer exists, which decoding
// ignores, and an "sws" block, which only the stream reads.
type Snapshot struct {
	Version int         `json:"version"`
	HLL     HLLSnapshot `json:"hll"`
	// SWS is read only: the per-template SWS evidence older snapshots kept
	// beside the template table. The stream folds its WHERE-clause hashes
	// into the table's rows on restore; nothing writes it any more.
	SWS *SWSSnapshot `json:"sws,omitempty"`
}

// SWSSnapshot is the part of an older snapshot's SWS evidence that the
// template table cannot rebuild: each template's distinct WHERE-clause
// hashes, in a base list and, in snapshots written while the evidence was
// split into event-time windows, per window. Its counts and user sets are
// not read; the template rows hold them exactly.
type SWSSnapshot struct {
	Base    []TemplateWheres `json:"base,omitempty"`
	Windows []struct {
		Evidence []TemplateWheres `json:"evidence,omitempty"`
	} `json:"windows,omitempty"`
}

// Evidence returns the base list followed by every window's (nil for a
// snapshot without SWS evidence).
func (s *SWSSnapshot) Evidence() []TemplateWheres {
	if s == nil {
		return nil
	}
	out := slices.Clone(s.Base)
	for _, w := range s.Windows {
		out = append(out, w.Evidence...)
	}
	return out
}

// TemplateWheres is one template's WHERE-clause hashes in SWS evidence.
type TemplateWheres struct {
	Fingerprint uint64   `json:"fingerprint"`
	WCs         []uint64 `json:"wcs,omitempty"`
}

// Restore rebuilds the HLL from a snapshot. The snapshot's own precision is
// authoritative: a daemon keeps the accumulated registers rather than
// discarding them, and only a fresh start uses DefaultPrecision.
func Restore(snap *Snapshot) (*HLL, error) {
	if snap.Version <= 0 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("sketch: snapshot version %d not supported (this build reads ≤ %d)",
			snap.Version, SnapshotVersion)
	}
	return restoreHLL(snap.HLL)
}
