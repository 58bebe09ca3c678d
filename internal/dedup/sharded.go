// Sharded duplicate deletion: the parallel variant of Remove. The sliding
// window of §5.2 compares each entry only against the previous occurrence of
// the same (user, statement) pair, so the scan decomposes perfectly along
// key boundaries: partition entries by key hash, run one independent sliding
// window per partition, and merge the keep/drop decisions back in log order.
// The result is bit-identical to Remove for every input and threshold — only
// wall-clock time changes.
package dedup

import (
	"hash/maphash"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/parallel"
)

// shardCount partitions the key space. A power of two well above the worker
// counts we target keeps the per-shard maps small and lets the pool's chunk
// oversubscription balance skewed shards (one hot statement text lands in
// one shard, but 256 shards per ≤ 32 workers leaves plenty to steal).
const shardCount = 256

// shardedMinInput is the input size below which bucketing entries across
// shards costs more than the window work it parallelizes; smaller inputs
// run the same window over one shard on the calling goroutine. A var so
// tests can force the sharded path on small inputs.
var shardedMinInput = 4096

// shardSeed makes key hashes consistent within a process. A hash picks the
// shard a key lives in and keys the shard's window; every window hit is
// confirmed by an exact comparison, so hash collisions cost a lookup in a
// second map, never correctness.
var shardSeed = maphash.MakeSeed()

// keyHash hashes one (user, statement) key with h, which it resets. A var
// so tests can force every key onto one hash.
var keyHash = func(h *maphash.Hash, user, stmt string) uint64 {
	h.Reset()
	h.WriteString(user)
	h.WriteByte(0)
	h.WriteString(stmt)
	return h.Sum64()
}

// RemoveSharded is Remove with the sliding window partitioned across up to
// `workers` goroutines (0 selects GOMAXPROCS, 1 runs one window on the
// calling goroutine). Output, order and statistics are identical to Remove.
func RemoveSharded(l logmodel.Log, threshold time.Duration, workers int) (logmodel.Log, Result) {
	out, _, res := removeSharded(l, threshold, workers)
	return out, res
}

// RemoveShardedIndexed is RemoveSharded plus the kept-entry indices, the
// parallel counterpart of RemoveIndexed.
func RemoveShardedIndexed(l logmodel.Log, threshold time.Duration, workers int) (logmodel.Log, []int, Result) {
	return removeSharded(l, threshold, workers)
}

func removeSharded(l logmodel.Log, threshold time.Duration, workers int) (logmodel.Log, []int, Result) {
	kept, res := Kept(len(l), func(i int) *logmodel.Entry { return &l[i] }, threshold, workers)
	out := make(logmodel.Log, len(kept))
	for j, i := range kept {
		out[j] = l[i]
	}
	return out, kept, res
}

// Kept runs Remove's sliding window over n entries that entry returns by
// position, without copying them, and returns the positions it keeps in
// ascending order: the positions of RemoveIndexed's output over the same
// entries. The entries must be sorted by (Time, Seq) and must not change
// during the call; entry must be safe for concurrent use. It lets a caller
// deduplicate a log it holds in another form, such as the SELECTs of a
// parsed log, in place. workers is RemoveSharded's.
func Kept(n int, entry func(i int) *logmodel.Entry, threshold time.Duration, workers int) ([]int, Result) {
	w := parallel.Workers(workers)
	mask := uint64(shardCount - 1)
	if w <= 1 || n < shardedMinInput {
		mask = 0
	}

	// Pass 1 (parallel): hash every (user, statement) key once. The hash
	// picks the key's shard and is its window's key.
	hashes := make([]uint64, n)
	parallel.Chunks(w, n, func(lo, hi int) {
		var h maphash.Hash
		h.SetSeed(shardSeed)
		for i := lo; i < hi; i++ {
			e := entry(i)
			hashes[i] = keyHash(&h, e.User, e.Statement)
		}
	})

	// Pass 2 (serial, O(n)): bucket positions per shard with a counting
	// sort. The sort is stable, so each shard sees its entries in log order.
	var counts [shardCount]int
	for _, h := range hashes {
		counts[h&mask]++
	}
	var offs [shardCount + 1]int
	for s, c := range counts {
		offs[s+1] = offs[s] + c
	}
	byShard := make([]int32, n)
	next := offs
	for i, h := range hashes {
		byShard[next[h&mask]] = int32(i)
		next[h&mask]++
	}

	// Pass 3 (parallel): one independent sliding window per shard, keyed by
	// hash. A window slot holds the position of the last entry of the first
	// key seen with that hash; a hit is confirmed by comparing the keys
	// exactly, and a key whose hash is already another key's slides in an
	// exact map instead. Shards write disjoint drop[i] slots and their own
	// removed counter, so no synchronization is needed beyond the pool's
	// completion barrier.
	drop := make([]bool, n)
	var removed [shardCount]int
	parallel.ShardRun(w, int(mask)+1, func(s int) {
		idxs := byShard[offs[s]:offs[s+1]]
		if len(idxs) == 0 {
			return
		}
		last := make(map[uint64]int32, len(idxs))
		var collided map[dupKey]int32
		r := 0
		for _, i := range idxs {
			h := hashes[i]
			prev, seen := last[h]
			if !seen {
				last[h] = i
				continue
			}
			e := entry(int(i))
			if p := entry(int(prev)); p.User == e.User && p.Statement == e.Statement {
				last[h] = i
			} else {
				k := dupKey{user: e.User, stmt: e.Statement}
				if collided == nil {
					collided = map[dupKey]int32{}
				}
				prev, seen = collided[k]
				collided[k] = i
				if !seen {
					continue
				}
			}
			if threshold == Unrestricted || e.Time.Sub(entry(int(prev)).Time) <= threshold {
				drop[i] = true
				r++
			}
		}
		removed[s] = r
	})

	// Pass 4 (serial): collect the kept positions in log order.
	res := Result{Threshold: threshold}
	for _, r := range removed {
		res.Removed += r
	}
	kept := make([]int, 0, n-res.Removed)
	for i, d := range drop {
		if !d {
			kept = append(kept, i)
		}
	}
	return kept, res
}
