// Package sketch holds the mergeable summary behind the daemon's
// distinct-identity analytics: a dense HyperLogLog counter. Per-template
// statistics are not here: the stream's template table keeps each
// template's count, users and distinct WHERE clauses exactly, and SWS
// classification reads them there. The counter has the properties the
// sharded stream needs: memory that does not grow with the log's length,
// deterministic state (no process-random seeds — snapshots restore across
// processes), and an order-free Merge for the cross-shard global view.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// hll precision limits: below 4 the estimator's constants are undefined,
// above 18 the registers (256 KiB) outweigh any accuracy gain for this
// workload.
const (
	minPrecision = 4
	maxPrecision = 18
	// DefaultPrecision gives 2^14 = 16384 registers: 16 KiB of state and a
	// standard error of 1.04/√m ≈ 0.81 %, comfortably inside the ±2 %
	// acceptance bound at 100k identities.
	DefaultPrecision = 14
)

// HLL is a dense HyperLogLog counter over 2^p six-bit ranks (stored one per
// byte — trading 25 % of the footprint for branch-free updates). The hash is
// fixed (FNV-1a finalized with splitmix64), so two processes — or two shards
// of one engine — observing the same identities produce the same registers,
// which is what makes Merge and snapshot/restore exact.
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL returns a dense HLL with 2^precision registers; precision 0 selects
// DefaultPrecision, other values are clamped to [4, 18].
func NewHLL(precision int) *HLL {
	if precision == 0 {
		precision = DefaultPrecision
	}
	if precision < minPrecision {
		precision = minPrecision
	}
	if precision > maxPrecision {
		precision = maxPrecision
	}
	return &HLL{p: uint8(precision), regs: make([]uint8, 1<<precision)}
}

// Precision returns p; the register count is 1<<p.
func (h *HLL) Precision() int { return int(h.p) }

// Registers returns the register count m = 2^p.
func (h *HLL) Registers() int { return len(h.regs) }

// Occupied counts non-zero registers — the occupancy gauge surfaced in
// sketch_* metrics. Occupancy saturating toward m signals the estimator has
// left its linear-counting range.
func (h *HLL) Occupied() int {
	n := 0
	for _, r := range h.regs {
		if r != 0 {
			n++
		}
	}
	return n
}

// hashIdentity hashes one identity string. FNV-1a alone has poor avalanche
// in the low bits (sequential inputs land in few registers); the splitmix64
// finalizer fixes the bit mixing without pulling in a new dependency or a
// per-process seed.
func hashIdentity(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// AddString observes one identity. Adding the same string twice is a no-op
// by construction, which is why journal replays cannot inflate the estimate.
func (h *HLL) AddString(s string) { h.AddHash(hashIdentity(s)) }

// AddHash observes a pre-hashed identity: the top p bits pick the register,
// the rank is the leading-zero run of the remaining bits plus one.
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - h.p)
	w := x<<h.p | 1<<(h.p-1) // sentinel caps the rank at 64-p+1
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// alpha is the bias-correction constant α_m of the HLL estimator.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Estimate returns the distinct count estimate: the raw harmonic-mean
// estimator with the small-range linear-counting correction (E ≤ 2.5m with
// empty registers). No large-range correction is needed — the 64-bit hash
// space makes collisions negligible at any realistic cardinality.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(h.regs)) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// Count returns the estimate rounded to an integer.
func (h *HLL) Count() int64 { return int64(math.Round(h.Estimate())) }

// Merge folds another HLL into h (per-register max). Merging the union of
// two streams equals observing their concatenation in any order.
func (h *HLL) Merge(o *HLL) error {
	if o == nil {
		return nil
	}
	if o.p != h.p {
		return fmt.Errorf("sketch: cannot merge HLL precision %d into %d", o.p, h.p)
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// Clone returns a deep copy.
func (h *HLL) Clone() *HLL {
	c := &HLL{p: h.p, regs: make([]uint8, len(h.regs))}
	copy(c.regs, h.regs)
	return c
}

// HLLSnapshot is the serialized register file. Registers marshal as base64
// through encoding/json's []byte handling.
type HLLSnapshot struct {
	Precision int    `json:"precision"`
	Registers []byte `json:"registers"`
}

// Snapshot serializes the counter.
func (h *HLL) Snapshot() HLLSnapshot {
	regs := make([]byte, len(h.regs))
	copy(regs, h.regs)
	return HLLSnapshot{Precision: int(h.p), Registers: regs}
}

// restoreHLL rebuilds a counter from its snapshot. It refuses a register
// above 65−p, the largest rank AddHash can write: no stream produces one,
// and from rank 64 on Estimate's 2^-rank term overflows and the count
// collapses to 0.
func restoreHLL(s HLLSnapshot) (*HLL, error) {
	if s.Precision < minPrecision || s.Precision > maxPrecision {
		return nil, fmt.Errorf("sketch: snapshot HLL precision %d out of range", s.Precision)
	}
	if len(s.Registers) != 1<<s.Precision {
		return nil, fmt.Errorf("sketch: snapshot has %d HLL registers, precision %d wants %d",
			len(s.Registers), s.Precision, 1<<s.Precision)
	}
	maxRank := byte(65 - s.Precision)
	for i, r := range s.Registers {
		if r > maxRank {
			return nil, fmt.Errorf("sketch: snapshot HLL register %d holds rank %d, precision %d allows at most %d",
				i, r, s.Precision, maxRank)
		}
	}
	h := &HLL{p: uint8(s.Precision), regs: make([]uint8, len(s.Registers))}
	copy(h.regs, s.Registers)
	return h, nil
}
