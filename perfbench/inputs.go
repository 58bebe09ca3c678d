package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sqlclean"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
)

// The event clock. loggen -replay stamps entries with their send time, so a
// second lap of the log lands inside the 1 s duplicate window and sessions
// never close during the load. The benchmark instead gives entry i of lap k
// the event time clockT0 + (k·N + i)·clockStep, whatever the wall clock says.
const (
	// numShards and queueSize are pinned on the daemon (-shards, -queue) so
	// that routing and the queued-span bound below are known.
	numShards = 8
	queueSize = 512
	// sessionGap is the daemon's default -gap.
	sessionGap = 5 * time.Minute
	// clockStep satisfies both bounds checkClock enforces: a scale-1 lap
	// (8,149 entries) spans 326 s > sessionGap, so returning users open new
	// sessions; and everything the daemon can hold queued
	// (numShards × queueSize = 4,096 entries) plus the positions one
	// connection may lead the other by spans less than sessionGap, so the
	// cross-shard sweep closes exactly the sessions a single-threaded
	// reference closes.
	clockStep = 40 * time.Millisecond
)

var clockT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// checkClock verifies the two event-clock bounds for a log of n entries
// that the load can lead by at most lead entries beyond what is queued.
func checkClock(n, lead int) error {
	if lap := time.Duration(n) * clockStep; lap <= sessionGap {
		return fmt.Errorf("clock: one lap of %d entries spans %v, not more than the %v session gap", n, lap, sessionGap)
	}
	if span := time.Duration(numShards*queueSize+lead) * clockStep; span >= sessionGap {
		return fmt.Errorf("clock: %d queued + %d leading entries span %v, not under the %v session gap", numShards*queueSize, lead, span, sessionGap)
	}
	return nil
}

// generate builds the synthetic SkyServer log loggen writes at this scale.
func generate(scale float64, seed int64) logmodel.Log {
	cfg := sqlclean.DefaultWorkloadConfig().Scale(scale)
	cfg.Seed = seed
	l, _ := sqlclean.GenerateWorkload(cfg)
	return l
}

// stamp returns entries [from, from+n) of the endless lap sequence over l,
// each carrying its event-clock time and its global index as Seq.
func stamp(l logmodel.Log, from, n int) []logmodel.Entry {
	out := make([]logmodel.Entry, n)
	for k := range out {
		j := from + k
		e := l[j%len(l)]
		e.Time = clockT0.Add(time.Duration(j) * clockStep)
		e.Seq = int64(j)
		out[k] = e
	}
	return out
}

// router computes the daemon's shard for a user: the same FNV routing
// sqlcleand uses at -shards numShards.
type router struct{ eng *stream.Sharded }

func newRouter() router {
	return router{eng: stream.NewSharded(stream.ShardedConfig{Shards: numShards})}
}

func (r router) shard(e logmodel.Entry) int { return r.eng.ShardFor(e.User) }

// request is one POST /ingest body: consecutive entries of one connection's
// stream, in log order, pre-encoded as TSV lines.
type request struct {
	id      int
	conn    int
	entries []logmodel.Entry
	lines   [][]byte // one TSV line per entry, newline included
}

func (q request) body(from int) []byte { return bytes.Join(q.lines[from:], nil) }

// first is the global log index of the request's first entry.
func (q request) first() int64 { return q.entries[0].Seq }

func encodeLines(entries []logmodel.Entry) [][]byte {
	lines := make([][]byte, len(entries))
	var buf bytes.Buffer
	for i := range entries {
		buf.Reset()
		if err := logmodel.WriteTSV(&buf, logmodel.Log{entries[i]}); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
		lines[i] = append([]byte(nil), buf.Bytes()...)
	}
	return lines
}

// splitRequests cuts entries into requests of at most size entries that
// span fewer than span log positions. With conns > 1, entry e goes to
// connection shard(e) % conns, so each shard's entries travel on one
// connection in log order. Requests are numbered in order of their first
// entry, the order the reference and the in-process replay apply them in.
func splitRequests(entries []logmodel.Entry, size int, span int64, conns int, rt router) []request {
	streams := make([][]logmodel.Entry, conns)
	for _, e := range entries {
		c := rt.shard(e) % conns
		streams[c] = append(streams[c], e)
	}
	var reqs []request
	for c, s := range streams {
		for lo := 0; lo < len(s); {
			hi := lo + 1
			for hi < len(s) && hi-lo < size && s[hi].Seq-s[lo].Seq < span {
				hi++
			}
			reqs = append(reqs, request{conn: c, entries: s[lo:hi], lines: encodeLines(s[lo:hi])})
			lo = hi
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].first() < reqs[j].first() })
	for i := range reqs {
		reqs[i].id = i
	}
	return reqs
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		out[i] = q.body(0)
	}
	return out
}

// percentile is the nearest-rank percentile of xs (p in [0,1]); xs is
// sorted in place. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// profile renders a latency distribution at a few percentiles.
func profile(xs []float64) string {
	s := append([]float64(nil), xs...)
	var parts []string
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999} {
		parts = append(parts, fmt.Sprintf("p%g=%.2f", 100*p, percentile(s, p)))
	}
	return strings.Join(parts, " ")
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}
