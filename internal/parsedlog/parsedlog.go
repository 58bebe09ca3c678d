// Package parsedlog is the "Parsed Query Log" stage of the paper's Fig. 1:
// every log entry annotated with its statement class and, for SELECT
// statements, the skeleton/template summary from package skeleton. Identical
// statement texts share one parse result, which matters a lot on real logs
// where a handful of templates cover millions of entries.
//
// A parse result is small: the statement's class, its skeleton.Info (the
// fingerprint, concrete-clause hashes and predicates) and a pointer to the
// Skeleton record that all statements of one masked skeleton share. No
// syntax tree is kept; Tree re-parses a statement for the few callers that
// rewrite one.
//
// Most distinct statements of a log differ from an earlier one only in their
// literal values, and a cache miss need not parse those. The Parser keeps a
// table of SELECT shapes, keyed by the token sequence with the values of
// number and string tokens cut out; each entry is a skeleton.Shape, the
// summary of the first statement of that shape with holes where its literals
// were. A miss tokenizes the statement once. If its shape is known, the
// summary is bound from the tokens: no parser and no printer runs. Otherwise
// the statement is parsed from the same tokens and, if it is a SELECT,
// records its shape. The table holds at most maxShapes entries.
//
// The Parser is safe for concurrent use. Its cache is split into shards of
// one mutex-guarded map each; a per-statement singleflight guarantees each
// unique text is parsed exactly once even when many goroutines race on it —
// so the "identical texts share one *skeleton.Info" invariant holds under
// ParseParallel exactly as it does serially.
//
// The cache also interns statement texts: every Entry returned for the same
// statement carries the first-seen string instance, so dedup keys, template
// aggregates and the clean log all share one string per distinct statement
// instead of retaining millions of equal copies.
package parsedlog

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parallel"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/sqltoken"
)

// Entry is one log entry plus its parse result.
type Entry struct {
	logmodel.Entry
	Class sqlast.StatementClass
	// Info is the skeleton summary; nil unless Class is ClassSelect. It is
	// shared between entries with identical statement text — treat it as
	// immutable. Tree(Info) re-parses the statement when a rewrite needs
	// the syntax tree.
	Info *skeleton.Info
	// Err is the parse error for ClassError entries.
	Err error
}

// Log is a parsed query log.
type Log []Entry

// Stats counts entries per statement class.
type Stats struct {
	Selects int
	DML     int
	DDL     int
	Exec    int
	Errors  int
}

// Total returns the number of classified entries.
func (s Stats) Total() int { return s.Selects + s.DML + s.DDL + s.Exec + s.Errors }

// count adds one entry of the given class.
func (s *Stats) count(c sqlast.StatementClass) {
	switch c {
	case sqlast.ClassSelect:
		s.Selects++
	case sqlast.ClassDML:
		s.DML++
	case sqlast.ClassDDL:
		s.DDL++
	case sqlast.ClassExec:
		s.Exec++
	default:
		s.Errors++
	}
}

// Add merges another count into s.
func (s *Stats) Add(o Stats) {
	s.Selects += o.Selects
	s.DML += o.DML
	s.DDL += o.DDL
	s.Exec += o.Exec
	s.Errors += o.Errors
}

// result is one cache slot with singleflight semantics: the goroutine that
// inserted the slot (or any later one — sync.Once picks a single winner)
// parses; everyone else blocks on the Once and then reads the shared value.
// done flips after the parse completed, so an instrumented lookup can tell
// a plain cache hit from a singleflight wait.
type result struct {
	once  sync.Once
	done  atomic.Bool
	class sqlast.StatementClass
	err   error
	// info.Statement is the interned statement text — the first string
	// instance that reached the cache — for every class; the rest of info
	// is filled in for SELECTs only. Every Entry for this slot carries
	// info.Statement, so all downstream stages share one string per
	// distinct statement.
	info skeleton.Info
}

// shardCount shards the statement-text cache. 32 is a power of two (cheap
// masking) comfortably above the core counts we target, so two workers
// rarely contend on one shard's lock, while the per-shard map overhead
// stays negligible.
const shardCount = 32

// shard is one cache partition: one map, guarded by mu for hits and misses
// alike. The lock is held for a map lookup only, never for a parse.
type shard struct {
	mu sync.Mutex
	m  map[string]*result
}

// hashSeed makes shard selection consistent within a process. It only picks
// the shard a statement lives in, so the per-run randomness of maphash never
// leaks into results. maphash is used (rather than FNV) because it runs at
// hardware-hash speed on long statement texts; the hash is computed outside
// any lock.
var hashSeed = maphash.MakeSeed()

// parserMetrics are the hot-path cache counters Instrument attaches.
type parserMetrics struct {
	entries *obs.Counter // ParseEntry calls
	misses  *obs.Counter // this call created the slot and parses
	hits    *obs.Counter // slot existed with a finished parse
	waits   *obs.Counter // slot existed but the parse was in flight (singleflight wait)
	binds   *obs.Counter // misses bound from a known shape instead of parsed
	shapes  *obs.Gauge   // entries in the shape table
}

// Parser parses log entries with a statement-text cache. It is safe for
// concurrent use by multiple goroutines.
type Parser struct {
	shards [shardCount]shard
	// skeletons holds one record per distinct masked skeleton, shared by
	// every parse result of that skeleton.
	skeletons skeleton.Skeletons
	// shapes holds one skeleton.Shape per SELECT token shape.
	shapes shapeTable
	// met is nil unless Instrument attached a registry. It is read without
	// synchronization, so Instrument must be called before parsing starts.
	met *parserMetrics
}

// Instrument attaches cache-effectiveness counters (parse_entries_total,
// parse_cache_hits_total, parse_cache_misses_total,
// parse_singleflight_waits_total, parse_shape_binds_total) and the
// parse_shapes gauge to the parser. Misses that ran the parser number
// parse_cache_misses_total − parse_shape_binds_total. Call before the first
// ParseEntry; a nil registry leaves the parser on the zero-overhead path.
func (p *Parser) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.met = &parserMetrics{
		entries: reg.Counter("parse_entries_total"),
		misses:  reg.Counter("parse_cache_misses_total"),
		hits:    reg.Counter("parse_cache_hits_total"),
		waits:   reg.Counter("parse_singleflight_waits_total"),
		binds:   reg.Counter("parse_shape_binds_total"),
		shapes:  reg.Gauge("parse_shapes"),
	}
}

// NewParser returns a Parser with an empty cache.
func NewParser() *Parser {
	p := &Parser{}
	for i := range p.shards {
		p.shards[i].m = map[string]*result{}
	}
	return p
}

// lookup returns the cache slot for a statement, creating it if needed, and
// reports whether this caller created it.
func (p *Parser) lookup(stmt string) (*result, bool) {
	sh := &p.shards[maphash.String(hashSeed, stmt)&(shardCount-1)]
	sh.mu.Lock()
	r, ok := sh.m[stmt]
	if !ok {
		r = &result{info: skeleton.Info{Statement: stmt}}
		sh.m[stmt] = r
	}
	sh.mu.Unlock()
	return r, !ok
}

// ParseEntry parses one log entry, consulting the shared cache. The
// returned Entry carries the interned statement text (the first-seen string
// instance for this statement), never e.Statement itself.
func (p *Parser) ParseEntry(e logmodel.Entry) Entry {
	r, created := p.lookup(e.Statement)
	if m := p.met; m != nil {
		m.entries.Inc()
		switch {
		case created:
			m.misses.Inc()
		case r.done.Load():
			m.hits.Inc()
		default:
			m.waits.Inc()
		}
	}
	r.once.Do(func() {
		p.parseInto(r)
		r.done.Store(true)
	})
	e.Statement = r.info.Statement
	pe := Entry{Entry: e, Class: r.class, Err: r.err}
	if r.class == sqlast.ClassSelect {
		pe.Info = &r.info
	}
	return pe
}

// parseInto fills in a slot: it tokenizes the statement, binds the summary
// of a SELECT whose shape the table knows, and parses everything else from
// the tokens, recording the shapes of new SELECTs while the table has room.
func (p *Parser) parseInto(r *result) {
	src := r.info.Statement
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	toks, err := sqltoken.TokenizeAppend(sc.toks[:0], src)
	sc.toks = toks[:0]
	if err != nil {
		r.class, r.err = sqlast.ClassError, err
		return
	}
	var lits map[*sqlast.Literal]int
	if len(toks) > 0 && toks[0].Kind == sqltoken.Keyword && toks[0].Val == "SELECT" {
		sc.key = appendShapeKey(sc.key[:0], toks)
		sh, full := p.shapes.find(sc.key, toks)
		if sh != nil {
			r.class = sqlast.ClassSelect
			sh.Bind(&r.info, toks)
			if m := p.met; m != nil {
				m.binds.Inc()
			}
			return
		}
		if !full {
			lits = map[*sqlast.Literal]int{}
		}
	}
	st, err := sqlparser.ParseTokens(src, toks, lits)
	if err != nil {
		r.class, r.err = sqlast.ClassError, err
		return
	}
	switch s := st.(type) {
	case *sqlast.SelectStatement:
		r.class = sqlast.ClassSelect
		if lits == nil {
			p.skeletons.Summarize(&r.info, s)
			return
		}
		if sh := p.skeletons.SummarizeShape(&r.info, s, lits); sh != nil {
			n := p.shapes.add(sc.key, toks, lits, sh)
			if m := p.met; m != nil {
				m.shapes.Set(int64(n))
			}
		}
	case *sqlast.InsertStatement, *sqlast.UpdateStatement, *sqlast.DeleteStatement:
		r.class = sqlast.ClassDML
	case *sqlast.OtherStatement:
		r.class = s.Class
	default:
		r.class = sqlast.ClassError
	}
}

// Tree re-parses a SELECT's statement text into a fresh syntax tree, which
// the caller owns and may rewrite. Parse results keep no tree, so every call
// parses again: use it to rewrite a statement or to inspect a few, never to
// scan a log.
func Tree(in *skeleton.Info) (*sqlast.SelectStatement, error) {
	return sqlparser.ParseSelect(in.Statement)
}

// Parse annotates a whole log on the calling goroutine, reusing the
// parser's cache across calls (statements already seen are not re-parsed).
func (p *Parser) Parse(l logmodel.Log) (Log, Stats) {
	out := make(Log, 0, len(l))
	var st Stats
	for _, e := range l {
		pe := p.ParseEntry(e)
		out = append(out, pe)
		st.count(pe.Class)
	}
	return out, st
}

// ParseParallel annotates a whole log using up to `workers` goroutines
// (0 selects GOMAXPROCS, 1 is the serial path). The result is identical to
// Parse: entries keep log order and identical texts share one
// *skeleton.Info. Only wall-clock time differs.
func (p *Parser) ParseParallel(l logmodel.Log, workers int) (Log, Stats) {
	return p.ParseParallelSpan(l, workers, nil)
}

// ParseParallelSpan is ParseParallel with per-worker child spans attached
// to sp (nil sp skips tracing; the result is unchanged either way).
func (p *Parser) ParseParallelSpan(l logmodel.Log, workers int, sp *obs.Span) (Log, Stats) {
	if parallel.Workers(workers) <= 1 {
		return p.Parse(l)
	}
	out := make(Log, len(l))
	var mu sync.Mutex
	var st Stats
	parallel.ChunksSpan(sp, workers, len(l), func(lo, hi int) {
		var local Stats
		for i := lo; i < hi; i++ {
			pe := p.ParseEntry(l[i])
			out[i] = pe
			local.count(pe.Class)
		}
		mu.Lock()
		st.Add(local)
		mu.Unlock()
	})
	return out, st
}

// Parse parses a whole log with a fresh cache and returns the annotated
// entries plus class counts.
func Parse(l logmodel.Log) (Log, Stats) {
	return NewParser().Parse(l)
}

// ParseParallel parses a whole log with a fresh cache using up to `workers`
// goroutines; see Parser.ParseParallel.
func ParseParallel(l logmodel.Log, workers int) (Log, Stats) {
	return NewParser().ParseParallel(l, workers)
}

// Selects returns a new log (and parallel logmodel.Log) containing only the
// successfully parsed SELECT entries, preserving order.
func (l Log) Selects() Log {
	out := make(Log, 0, len(l))
	for _, e := range l {
		if e.Class == sqlast.ClassSelect {
			out = append(out, e)
		}
	}
	return out
}

// SelectsRaw returns the SELECT-only entries as a plain logmodel.Log in one
// pass — Selects().Raw() without materialising the intermediate parsed copy.
func (l Log) SelectsRaw() logmodel.Log {
	out := make(logmodel.Log, 0, len(l))
	for _, e := range l {
		if e.Class == sqlast.ClassSelect {
			out = append(out, e.Entry)
		}
	}
	return out
}

// Subset returns the entries at the given indices, in the order given —
// the way dedup's kept-index list is carried through without re-parsing.
func (l Log) Subset(indices []int) Log {
	out := make(Log, len(indices))
	for i, idx := range indices {
		out[i] = l[idx]
	}
	return out
}

// Raw converts back to a plain logmodel.Log.
func (l Log) Raw() logmodel.Log {
	out := make(logmodel.Log, len(l))
	for i, e := range l {
		out[i] = e.Entry
	}
	return out
}
