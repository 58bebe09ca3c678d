// Package dedup implements the first pipeline stage of the paper (§5.2):
// deleting duplicate queries. Two statements are duplicates when they are
// textually identical, come from the same user, and the time difference to
// the previous occurrence is at most a threshold. Duplicates are perceived
// as unintended errors (web-form reloads, application bugs), so the count of
// removals is part of the result statistics.
package dedup

import (
	"time"

	"sqlclean/internal/logmodel"
)

// Unrestricted makes every later identical statement of the same user a
// duplicate, regardless of elapsed time (the paper's "non restricted" row in
// Table 4).
const Unrestricted = time.Duration(-1)

// Result reports what the deduplication pass did.
type Result struct {
	// Removed is the number of entries dropped as duplicates.
	Removed int
	// Threshold echoes the threshold used.
	Threshold time.Duration
}

type dupKey struct {
	user string
	stmt string
}

// Remove returns a copy of the log without duplicates, using a sliding
// window: each occurrence is compared against the previous occurrence of the
// same (user, statement) pair, kept or dropped, and then becomes the new
// reference point. A chain of reloads 0.8 s apart is therefore fully removed
// by a 1 s threshold. The input must be sorted by (Time, Seq); the output
// preserves order.
func Remove(l logmodel.Log, threshold time.Duration) (logmodel.Log, Result) {
	out, _, res := remove(l, threshold, false)
	return out, res
}

// RemoveIndexed is Remove plus the indices (into the input) of the kept
// entries, so callers can carry parallel per-entry annotations — e.g. a
// parsed log — through deduplication without recomputing them.
func RemoveIndexed(l logmodel.Log, threshold time.Duration) (logmodel.Log, []int, Result) {
	return remove(l, threshold, true)
}

// remove is the serial window, keyed by the (user, statement) pair itself:
// the reference the sharded, hash-keyed Kept is tested against.
func remove(l logmodel.Log, threshold time.Duration, wantIndices bool) (logmodel.Log, []int, Result) {
	last := make(map[dupKey]time.Time, len(l)/2+1)
	out := make(logmodel.Log, 0, len(l))
	var kept []int
	if wantIndices {
		kept = make([]int, 0, len(l))
	}
	res := Result{Threshold: threshold}
	for i, e := range l {
		k := dupKey{user: e.User, stmt: e.Statement}
		prev, seen := last[k]
		last[k] = e.Time
		if seen && (threshold == Unrestricted || e.Time.Sub(prev) <= threshold) {
			res.Removed++
			continue
		}
		out = append(out, e)
		if wantIndices {
			kept = append(kept, i)
		}
	}
	return out, kept, res
}
