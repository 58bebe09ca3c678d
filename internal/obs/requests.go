// Request-scoped tracing: every request gets a ReqTrace that accumulates
// per-stage timings (admission, journal group-commit, shard enqueue, session
// emit, ...) and integer attributes; completed traces land in a fixed-size
// ring buffer plus a bounded slowest-first list, served over HTTP as
// GET /debug/requests — the x/net/trace idea without the dependency.
//
// The design is lock-cheap by construction: a trace is touched by its one
// request goroutine (stages, attrs) under a mutex nobody contends on, plus
// an atomic pending counter that lets asynchronous completions (a shard
// drain applying the request's last entry) stamp the final stage without
// holding any server-wide lock. The RequestLog itself takes one short mutex
// per completed request — ring insert and slowest update — never per entry.
//
// Everything is nil-safe: a nil *RequestLog hands out nil traces whose
// methods all no-op, preserving the obs package's zero-overhead contract
// when tracing is disabled.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStage is one timed stage of a request, in the order recorded.
type TraceStage struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// ReqTrace is one request's trace. Create through RequestLog.Start (or
// StartWithID to honor a caller-supplied ID), record stages and attributes
// while handling, Finish when the response is written, and use the pending
// counter to stamp a final stage when asynchronous work completes.
type ReqTrace struct {
	id    string
	start time.Time
	owner *RequestLog

	// pending counts outstanding asynchronous completions (queued entries
	// not yet applied, plus one reference held by the handler itself); the
	// decrement that reaches zero stamps the closing stage.
	pending atomic.Int64

	mu      sync.Mutex
	stages  []TraceStage
	attrs   map[string]int64
	status  int
	outcome string
	syncNS  int64 // request duration at Finish
	totalNS int64 // duration until the last pending completion
	done    bool
}

// traceBase seeds TraceID with process-random bits so two daemons never
// collide; the multiplied counter (a bijection on uint64) keeps every ID in
// one process distinct.
var (
	traceBase = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	traceSeq atomic.Uint64
)

// TraceID returns a fresh 16-hex-digit request identifier, unique within the
// process and unlikely to collide across processes.
func TraceID() string {
	return fmt.Sprintf("%016x", traceBase^(traceSeq.Add(1)*0x9e3779b97f4a7c15))
}

// ID returns the trace identifier ("" on a nil receiver).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Stage appends one named stage duration. No-op on a nil receiver.
func (t *ReqTrace) Stage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, TraceStage{Name: name, DurationNS: int64(d)})
	t.mu.Unlock()
}

// SetInt stores an integer attribute (accepted counts, byte sizes). No-op on
// a nil receiver.
func (t *ReqTrace) SetInt(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = map[string]int64{}
	}
	t.attrs[key] = v
	t.mu.Unlock()
}

// AddPending registers n future asynchronous completions (negative undoes a
// registration that never handed the work off). No-op on a nil receiver.
func (t *ReqTrace) AddPending(n int64) {
	if t == nil {
		return
	}
	t.pending.Add(n)
}

// DonePending marks one asynchronous completion. The call that drops the
// counter to zero stamps stage (duration = time since the trace started) and
// freezes the trace's total duration. No-op on a nil receiver.
func (t *ReqTrace) DonePending(stage string) {
	if t == nil {
		return
	}
	if t.pending.Add(-1) != 0 {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	t.stages = append(t.stages, TraceStage{Name: stage, DurationNS: int64(d)})
	t.totalNS = int64(d)
	t.mu.Unlock()
}

// Finish freezes the synchronous (request) duration, records the response
// status and outcome, and publishes the trace into its RequestLog's ring and
// slowest views. Idempotent; no-op on a nil receiver. Asynchronous stages
// may still be stamped after Finish — the views render the live pointer.
func (t *ReqTrace) Finish(status int, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.status = status
	t.outcome = outcome
	t.syncNS = int64(time.Since(t.start))
	if t.totalNS < t.syncNS {
		t.totalNS = t.syncNS
	}
	syncNS := t.syncNS
	t.mu.Unlock()
	if t.owner != nil {
		t.owner.record(t, syncNS)
	}
}

// SyncDuration returns the request duration frozen by Finish, or the running
// duration while the request is still active (0 on a nil receiver).
func (t *ReqTrace) SyncDuration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return time.Duration(t.syncNS)
	}
	return time.Since(t.start)
}

// ReqTraceSnapshot is the immutable JSON view of one trace.
type ReqTraceSnapshot struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// DurationNS is the synchronous request duration (to response written).
	DurationNS int64 `json:"duration_ns"`
	// TotalNS extends DurationNS to the last asynchronous completion — for
	// an ingest request, until its last entry was applied and emitted.
	TotalNS int64            `json:"total_ns"`
	Status  int              `json:"status"`
	Outcome string           `json:"outcome,omitempty"`
	Active  bool             `json:"active,omitempty"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
	Stages  []TraceStage     `json:"stages,omitempty"`
}

// Snapshot copies the trace. A nil trace snapshots to the zero value.
func (t *ReqTrace) Snapshot() ReqTraceSnapshot {
	if t == nil {
		return ReqTraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := ReqTraceSnapshot{
		ID:         t.id,
		Start:      t.start,
		DurationNS: t.syncNS,
		TotalNS:    t.totalNS,
		Status:     t.status,
		Outcome:    t.outcome,
		Active:     !t.done,
	}
	if s.Active {
		s.DurationNS = int64(time.Since(t.start))
	}
	if len(t.attrs) > 0 {
		s.Attrs = make(map[string]int64, len(t.attrs))
		for k, v := range t.attrs {
			s.Attrs[k] = v
		}
	}
	s.Stages = append([]TraceStage(nil), t.stages...)
	return s
}

// RequestLog keeps the most recent completed traces in a ring buffer and the
// slowest completed traces in a bounded list. The zero value is not usable —
// NewRequestLog — but a nil *RequestLog is the disabled fast path.
type RequestLog struct {
	mu      sync.Mutex
	ring    []*ReqTrace // newest at (next-1+len)%len once full
	next    int
	filled  bool
	slow    []*ReqTrace // sorted by sync duration, slowest first
	slowCap int
}

// NewRequestLog returns a request log keeping the last recent completed
// traces (0 selects 256) and the slowest slowest (0 selects 32).
func NewRequestLog(recent, slowest int) *RequestLog {
	if recent <= 0 {
		recent = 256
	}
	if slowest <= 0 {
		slowest = 32
	}
	return &RequestLog{ring: make([]*ReqTrace, recent), slowCap: slowest}
}

// Start creates a trace with a fresh ID. A nil log returns a nil trace.
func (l *RequestLog) Start() *ReqTrace { return l.StartWithID(TraceID()) }

// StartWithID creates a trace honoring a caller-supplied identifier (an
// upstream X-Trace-Id). Empty or oversized IDs fall back to a fresh one. A
// nil log returns a nil trace.
func (l *RequestLog) StartWithID(id string) *ReqTrace {
	if l == nil {
		return nil
	}
	if id == "" || len(id) > 64 {
		id = TraceID()
	}
	return &ReqTrace{id: id, start: time.Now(), owner: l}
}

// record publishes a finished trace: one ring slot write plus an insertion
// into the slowest list when it qualifies.
func (l *RequestLog) record(t *ReqTrace, syncNS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = t
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.filled = true
	}
	if len(l.slow) < l.slowCap || syncNS > l.slow[len(l.slow)-1].slowKey() {
		i := sort.Search(len(l.slow), func(i int) bool { return l.slow[i].slowKey() < syncNS })
		l.slow = append(l.slow, nil)
		copy(l.slow[i+1:], l.slow[i:])
		l.slow[i] = t
		if len(l.slow) > l.slowCap {
			l.slow = l.slow[:l.slowCap]
		}
	}
}

// slowKey reads the frozen sync duration for slowest-list ordering.
func (t *ReqTrace) slowKey() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncNS
}

// Recent returns up to n completed traces, newest first (nil on a nil log).
func (l *RequestLog) Recent(n int) []ReqTraceSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var ts []*ReqTrace
	size := l.next
	if l.filled {
		size = len(l.ring)
	}
	for i := 0; i < size && i < n; i++ {
		ts = append(ts, l.ring[(l.next-1-i+len(l.ring))%len(l.ring)])
	}
	l.mu.Unlock()
	out := make([]ReqTraceSnapshot, len(ts))
	for i, t := range ts {
		out[i] = t.Snapshot()
	}
	return out
}

// Slowest returns up to n completed traces, slowest first (nil on a nil log).
func (l *RequestLog) Slowest(n int) []ReqTraceSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	ts := make([]*ReqTrace, 0, n)
	for i := 0; i < len(l.slow) && i < n; i++ {
		ts = append(ts, l.slow[i])
	}
	l.mu.Unlock()
	out := make([]ReqTraceSnapshot, len(ts))
	for i, t := range ts {
		out[i] = t.Snapshot()
	}
	return out
}

// requestsPayload is the GET /debug/requests document.
type requestsPayload struct {
	View     string             `json:"view"`
	Requests []ReqTraceSnapshot `json:"requests"`
}

// ServeHTTP renders the trace views as JSON:
//
//	GET /debug/requests?n=32            the n most recent completed traces
//	GET /debug/requests?view=slow&n=32  the n slowest completed traces
func (l *RequestLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	view := r.URL.Query().Get("view")
	var p requestsPayload
	switch view {
	case "slow", "slowest":
		p = requestsPayload{View: "slowest", Requests: l.Slowest(n)}
	default:
		p = requestsPayload{View: "recent", Requests: l.Recent(n)}
	}
	if p.Requests == nil {
		p.Requests = []ReqTraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}
