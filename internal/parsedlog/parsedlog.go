// Package parsedlog is the "Parsed Query Log" stage of the paper's Fig. 1:
// every log entry annotated with its statement class and, for SELECT
// statements, the skeleton/template summary from package skeleton. A cache
// of recent statement texts saves re-parsing the hot ones, which matters a
// lot on real logs where a handful of templates cover millions of entries.
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
// The statement cache has a fixed size, so a parser's memory does not grow
// with the log. It is an array of 2^cacheSetBits sets of cacheWays slots, each an
// atomic pointer to an immutable parse result; a statement's set is picked
// by its maphash. A lookup loads the set's slots and compares texts, with no
// lock. A miss parses, then publishes its result into the set's first slot
// and shifts the older results one slot down, the last one out. Statements
// longer than maxCachedLen are parsed but never cached, so the slot count
// bounds the text the cache holds.
//
// The Parser is safe for concurrent use. Two goroutines that miss on one
// text at once both parse it; their results are equal. So entries with
// identical texts always carry equal summaries, and while the text stays
// cached they share one *skeleton.Info and one statement string (the
// first-seen instance): sharing is best effort, never a guarantee.
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
	// Info is the skeleton summary; nil unless Class is ClassSelect. It may
	// be shared with other entries of the same statement text — treat it as
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

// result is one parse result. It is immutable once published in a cache
// slot, so readers share it without a lock.
type result struct {
	// hash is the statement's maphash, compared before the text.
	hash  uint64
	class sqlast.StatementClass
	err   error
	// info.Statement is the statement text for every class; the rest of
	// info is filled in for SELECTs only.
	info skeleton.Info
}

// Cache geometry. 2^14 sets of 4 ways hold 65,536 statements in 512 KB of
// pointers, about nine times the 7,421 distinct texts of one lap of the
// scale-1 generator log: a log that cycles keeps hitting, and a log of
// mostly distinct texts replaces old ones instead of growing the cache.
// maxCachedLen is far above the longest generated statement (174 B) and
// keeps a hostile statement from pinning more than a kilobyte per slot.
const (
	cacheSetBits = 14
	cacheWays    = 4
	maxCachedLen = 1 << 10
)

// set is one cache set: its results, newest first. A slot goes from nil to
// a result once and then only ever holds results, so the nil slots of a set
// are its last ones.
type set [cacheWays]atomic.Pointer[result]

// find returns the set's result for stmt, or nil.
func (s *set) find(h uint64, stmt string) *result {
	for i := range s {
		r := s[i].Load()
		if r == nil {
			return nil
		}
		if r.hash == h && r.info.Statement == stmt {
			return r
		}
	}
	return nil
}

// publish puts r in the set's first slot and shifts the older results one
// slot down. It returns the result shifted out of the last slot, or nil if
// the set had room. Each swap hands the displaced result on to the next
// slot, so under concurrent publishes no result is lost but the one
// returned, and a slot never goes back to nil.
func (s *set) publish(r *result) *result {
	for i := range s {
		if r = s[i].Swap(r); r == nil {
			return nil
		}
	}
	return r
}

// hashSeed makes set selection consistent within a process. It only picks
// the set a statement lives in, so the per-run randomness of maphash never
// leaks into results; it can change which statements displace which, and
// so the hit count, from run to run. maphash runs at hardware-hash speed on
// long statement texts.
var hashSeed = maphash.MakeSeed()

// parserMetrics are the hot-path cache counters Instrument attaches. They
// are nil, and so no-ops, until it does.
type parserMetrics struct {
	entries  *obs.Counter // ParseEntry calls
	misses   *obs.Counter // statement not cached: this call parsed it
	hits     *obs.Counter // statement cached
	replaced *obs.Counter // misses that pushed a cached statement out
	binds    *obs.Counter // misses bound from a known shape instead of parsed
	bytes    *obs.Gauge   // statement text held by the cache
	shapes   *obs.Gauge   // entries in the shape table
}

// Parser parses log entries with a fixed-size statement-text cache. It is
// safe for concurrent use by multiple goroutines.
type Parser struct {
	// sets is allocated by the first ParseEntry, under once: a pointer
	// array must be zeroed up front, which takes a few hundred microseconds
	// that a daemon's start-up should not wait for.
	setBits int
	once    sync.Once
	sets    []set
	// skeletons holds one record per distinct masked skeleton, shared by
	// every parse result of that skeleton.
	skeletons skeleton.Skeletons
	// shapes holds one skeleton.Shape per SELECT token shape.
	shapes shapeTable
	// met is read without synchronization, so Instrument must be called
	// before parsing starts.
	met parserMetrics
}

// Instrument attaches cache-effectiveness counters (parse_entries_total,
// parse_cache_hits_total, parse_cache_misses_total,
// parse_cache_replaced_total, parse_shape_binds_total) and the
// parse_cache_bytes and parse_shapes gauges to the parser. Misses that ran
// the parser number parse_cache_misses_total − parse_shape_binds_total.
// Call before the first ParseEntry; a nil registry leaves the parser on the
// zero-overhead path.
func (p *Parser) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.met = parserMetrics{
		entries:  reg.Counter("parse_entries_total"),
		misses:   reg.Counter("parse_cache_misses_total"),
		hits:     reg.Counter("parse_cache_hits_total"),
		replaced: reg.Counter("parse_cache_replaced_total"),
		binds:    reg.Counter("parse_shape_binds_total"),
		bytes:    reg.Gauge("parse_cache_bytes"),
		shapes:   reg.Gauge("parse_shapes"),
	}
}

// NewParser returns a Parser with an empty cache.
func NewParser() *Parser { return newParser(cacheSetBits) }

// newParser returns a Parser whose cache has 2^setBits sets.
func newParser(setBits int) *Parser { return &Parser{setBits: setBits} }

// ParseEntry parses one log entry, consulting the shared cache. While the
// statement is cached, the returned Entry carries the cached string
// instance instead of e.Statement.
func (p *Parser) ParseEntry(e logmodel.Entry) Entry {
	p.once.Do(func() { p.sets = make([]set, 1<<p.setBits) })
	h := maphash.String(hashSeed, e.Statement)
	s := &p.sets[h&uint64(len(p.sets)-1)]
	p.met.entries.Inc()
	r := s.find(h, e.Statement)
	if r != nil {
		p.met.hits.Inc()
	} else {
		r = &result{hash: h, info: skeleton.Info{Statement: e.Statement}}
		p.parseInto(r)
		p.met.misses.Inc()
		if len(e.Statement) <= maxCachedLen {
			p.met.bytes.Add(int64(len(e.Statement)))
			if out := s.publish(r); out != nil {
				p.met.replaced.Inc()
				p.met.bytes.Add(-int64(len(out.info.Statement)))
			}
		}
	}
	e.Statement = r.info.Statement
	pe := Entry{Entry: e, Class: r.class, Err: r.err}
	if r.class == sqlast.ClassSelect {
		pe.Info = &r.info
	}
	return pe
}

// parseInto fills in a result: it tokenizes the statement, binds the summary
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
			p.met.binds.Inc()
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
			p.met.shapes.Set(int64(p.shapes.add(sc.key, toks, lits, sh)))
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
// parser's cache across calls (statements still cached are not re-parsed).
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
// (0 selects GOMAXPROCS, 1 is the serial path). The result equals Parse's:
// entries keep log order and carry equal summaries. Only wall-clock time
// differs.
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
