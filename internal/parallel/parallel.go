// Package parallel provides the small concurrency primitives the pipeline's
// embarrassingly parallel stages are built on: a worker-count resolver and a
// bounded worker pool exposed as an ordered Map plus a chunked range runner.
//
// The primitives are deliberately deterministic: Map writes each result into
// its input's slot, and Chunks hands out disjoint contiguous index ranges, so
// output order never depends on goroutine scheduling. Callers that merge
// per-chunk aggregates are responsible for doing so in a scheduling-
// independent way (e.g. commutative counters, or collecting per-index and
// reducing serially).
//
// Observability: the Span variants attach one child span per worker
// goroutine (its busy time — the utilization view of a fan-out), and
// Instrument wires process-wide pool counters into an obs.Registry.
// Both are nil fast paths: with no span and no registry the hot loop is
// exactly the uninstrumented code.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sqlclean/internal/obs"
)

// Workers resolves a worker-count knob: n > 0 is used as given; zero or
// negative selects runtime.GOMAXPROCS(0), i.e. "all the CPUs the runtime
// will schedule on".
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// minParallel is the input size below which fan-out overhead outweighs any
// win and the primitives fall back to the calling goroutine.
const minParallel = 64

// chunksPerWorker oversubscribes the chunk count so that skewed per-item
// cost (one session with thousands of queries, one statement that is very
// slow to parse) still load-balances: a worker that drew a cheap chunk grabs
// the next one instead of idling.
const chunksPerWorker = 8

// poolMetrics are the process-wide pool counters, published by Instrument.
type poolMetrics struct {
	fanouts *obs.Counter // parallel sections entered
	chunks  *obs.Counter // chunks executed
	items   *obs.Counter // items covered by executed chunks
	busyNS  *obs.Counter // summed worker busy time
	active  *obs.Gauge   // workers currently running (Max = peak)
}

// metrics is nil until Instrument attaches a registry; the pool loads it
// once per fan-out, so uninstrumented runs pay one atomic load per Chunks
// call and nothing per chunk.
var metrics atomic.Pointer[poolMetrics]

// Instrument publishes worker-pool utilization metrics into the registry:
// parallel_fanouts_total, parallel_chunks_total, parallel_items_total,
// parallel_busy_ns_total and the parallel_workers_active gauge (whose Max
// is the peak concurrency). A nil registry detaches.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		fanouts: reg.Counter("parallel_fanouts_total"),
		chunks:  reg.Counter("parallel_chunks_total"),
		items:   reg.Counter("parallel_items_total"),
		busyNS:  reg.Counter("parallel_busy_ns_total"),
		active:  reg.Gauge("parallel_workers_active"),
	})
}

// Map applies fn to every element of in using up to `workers` goroutines and
// returns the results in input order. fn receives the element's index and
// value; it must be safe for concurrent use. With workers <= 1 (or a small
// input) everything runs on the calling goroutine, which keeps the serial
// path allocation- and goroutine-free.
func Map[T, R any](workers int, in []T, fn func(int, T) R) []R {
	return MapSpan(nil, workers, in, fn)
}

// MapSpan is Map with per-worker child spans attached to sp (nil sp skips
// all tracing).
func MapSpan[T, R any](sp *obs.Span, workers int, in []T, fn func(int, T) R) []R {
	out := make([]R, len(in))
	ChunksSpan(sp, workers, len(in), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i, in[i])
		}
	})
	return out
}

// Chunks partitions [0, n) into contiguous chunks and invokes fn(lo, hi)
// for each, using up to `workers` goroutines. Chunks are disjoint and cover
// the range exactly once; fn must be safe for concurrent use. The call
// returns after every chunk completed. With workers <= 1 or n < minParallel
// a single fn(0, n) call runs on the calling goroutine.
func Chunks(workers, n int, fn func(lo, hi int)) {
	ChunksSpan(nil, workers, n, fn)
}

// ShardRun invokes fn(s) once for every shard index in [0, n) using up to
// `workers` goroutines. It is Chunks without the small-input serial floor:
// shard counts are small (tens to hundreds) but each shard carries a heavy,
// independent unit of work — a per-shard dedup window, a stream partition —
// so fanning out pays even for n far below minParallel. Shards are handed
// out one at a time, which is also the load-balancing: a worker that drew a
// light shard immediately grabs the next. fn must be safe for concurrent
// use. With workers <= 1 or n <= 1 everything runs on the calling goroutine.
func ShardRun(workers, n int, fn func(s int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for s := 0; s < n; s++ {
			fn(s)
		}
		return
	}
	m := metrics.Load()
	if m != nil {
		m.fanouts.Inc()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			if m != nil {
				m.active.Add(1)
				defer m.active.Add(-1)
			}
			var chunks int64
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					break
				}
				fn(s)
				chunks++
			}
			if m != nil {
				m.chunks.Add(chunks)
				m.items.Add(chunks)
			}
		}()
	}
	wg.Wait()
}

// ChunksSpan is Chunks with observability: when sp is non-nil and the
// parallel path is taken, each worker goroutine records a child span
// ("worker00", ...) carrying its busy time — idle workers show up with zero.
// Which chunks a worker drew depends on scheduling, so the spans do not
// record it: a run's span tree has the same shape and attributes every
// time. When Instrument attached a registry, the process-wide pool counters
// (chunks and items included) are updated as well.
func ChunksSpan(sp *obs.Span, workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 || n < minParallel {
		fn(0, n)
		return
	}

	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	m := metrics.Load()
	if m != nil {
		m.fanouts.Inc()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		var ws *obs.Span
		if sp != nil {
			ws = sp.StartChild(fmt.Sprintf("worker%02d", g))
		}
		go func(ws *obs.Span) {
			defer wg.Done()
			if m != nil {
				m.active.Add(1)
				defer m.active.Add(-1)
			}
			var busy time.Duration
			var chunks, items int64
			observed := m != nil || ws != nil
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if observed {
					t0 := time.Now()
					fn(lo, hi)
					busy += time.Since(t0)
					chunks++
					items += int64(hi - lo)
				} else {
					fn(lo, hi)
				}
			}
			if m != nil {
				m.chunks.Add(chunks)
				m.items.Add(items)
				m.busyNS.Add(int64(busy))
			}
			if ws != nil {
				ws.AddInt("busy_ns", int64(busy))
				ws.End()
			}
		}(ws)
	}
	wg.Wait()
}
