package parsedlog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/sqltoken"
	"sqlclean/internal/workload"
)

// fullInfo is the summary the full parse makes of stmt, with p's skeleton
// records.
func fullInfo(t testing.TB, p *Parser, stmt string) *skeleton.Info {
	t.Helper()
	sel, err := sqlparser.ParseSelect(stmt)
	if err != nil {
		t.Fatalf("parse %q: %v", stmt, err)
	}
	in := &skeleton.Info{Statement: stmt}
	p.skeletons.Summarize(in, sel)
	return in
}

// checkSummary fails unless got, a parse result of p, equals the full
// parse's summary of its statement.
func checkSummary(t testing.TB, p *Parser, got *skeleton.Info) {
	t.Helper()
	want := fullInfo(t, p, got.Statement)
	switch {
	case got.Fingerprint != want.Fingerprint:
		t.Fatalf("%q: fingerprint %x, full parse %x", got.Statement, got.Fingerprint, want.Fingerprint)
	case got.SCHash != want.SCHash || got.FCHash != want.FCHash || got.WCHash != want.WCHash:
		t.Fatalf("%q: clause hashes %x/%x/%x, full parse %x/%x/%x", got.Statement,
			got.SCHash, got.FCHash, got.WCHash, want.SCHash, want.FCHash, want.WCHash)
	case !reflect.DeepEqual(got.Predicates, want.Predicates):
		t.Fatalf("%q: predicates\n%+v\nfull parse\n%+v", got.Statement, got.Predicates, want.Predicates)
	case got.Skeleton != want.Skeleton:
		t.Fatalf("%q: skeleton record %p, full parse %p", got.Statement, got.Skeleton, want.Skeleton)
	}
}

// instrumented returns a parser with a registry attached.
func instrumented() (*Parser, *obs.Registry) {
	p, reg := NewParser(), obs.NewRegistry()
	p.Instrument(reg)
	return p, reg
}

// TestShapeBindingMatchesFullParse parses generated logs of five seeds and
// checks every distinct SELECT's summary against the full parse's, while
// most of them are bound from their shape.
func TestShapeBindingMatchesFullParse(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := workload.DefaultConfig().Scale(0.5)
		cfg.Seed = seed
		l, _ := workload.Generate(cfg)
		p, reg := instrumented()
		pl, _ := p.Parse(l)
		seen := map[string]bool{}
		for _, pe := range pl {
			if pe.Info != nil && !seen[pe.Statement] {
				seen[pe.Statement] = true
				checkSummary(t, p, pe.Info)
			}
		}
		misses, binds := reg.Counter("parse_cache_misses_total").Value(), reg.Counter("parse_shape_binds_total").Value()
		t.Logf("seed %d: %d distinct SELECTs, %d misses, %d bound, %d shapes", seed, len(seen), misses, binds, p.shapes.n)
		if binds < int64(len(seen))*9/10 {
			t.Fatalf("seed %d: only %d of %d distinct SELECTs bound", seed, binds, len(seen))
		}
	}
}

// shapeFamilies are statements grouped into families whose members differ
// only in literal values, with the number of shapes each family has. CAST
// type arguments and CONVERT styles are not literals, so changing one makes
// a new shape under the same key.
var shapeFamilies = []struct {
	shapes int
	stmts  []string
}{
	{1, []string{ // negative numbers, and a minus that cannot fold
		"SELECT a FROM t WHERE x = -5 AND y > - -3 AND z < -(4) AND w = -+2",
		"SELECT a FROM t WHERE x = -17.25 AND y > - -0.5 AND z < -(1e3) AND w = -+0",
		"SELECT a FROM t WHERE x = -8 AND y > - -9 AND z < -(0) AND w = -+.5",
	}},
	{1, []string{ // hex and exponent numbers
		"SELECT a, 0x1F FROM t WHERE x = 0xff AND y = 1e5 AND z = .5",
		"SELECT a, 0xABCDEF FROM t WHERE x = 0x0 AND y = 2.5E-3 AND z = 7.",
		"SELECT a, 0x FROM t WHERE x = 0x1 AND y = 3e+7 AND z = 12.75",
	}},
	{1, []string{ // strings holding quotes, comment markers and semicolons
		"SELECT 'it''s' AS k FROM t WHERE name = 'a''''b' AND c LIKE '%x'",
		"SELECT '' AS k FROM t WHERE name = '-- not a comment' AND c LIKE '/* no */;'",
		"SELECT '#' AS k FROM t WHERE name = ''';' AND c LIKE ''",
	}},
	{1, []string{ // comparisons with NULL
		"SELECT a FROM t WHERE x = NULL AND NULL <> y AND z IN (NULL, 3) AND w IS NULL AND v = 1",
		"SELECT a FROM t WHERE x = NULL AND NULL <> y AND z IN (NULL, 99) AND w IS NULL AND v = 0",
	}},
	{1, []string{ // literal on the left is flipped onto the column
		"SELECT a FROM t WHERE 5 < x AND 'q' = y",
		"SELECT a FROM t WHERE 6 < x AND '' = y",
	}},
	{2, []string{ // CAST type arguments
		"SELECT CAST(a AS varchar(30)) FROM t WHERE CAST(b AS decimal(10, 2)) = 1.5",
		"SELECT CAST(a AS varchar(30)) FROM t WHERE CAST(b AS decimal(10, 2)) = 2.5",
		"SELECT CAST(a AS varchar(40)) FROM t WHERE CAST(b AS decimal(10, 2)) = 3.5",
		"SELECT CAST(a AS varchar(40)) FROM t WHERE CAST(b AS decimal(10, 2)) = 4.5",
	}},
	{2, []string{ // CONVERT styles
		"SELECT CONVERT(varchar(10), d, 120) FROM t WHERE x = 'a'",
		"SELECT CONVERT(varchar(10), d, 121) FROM t WHERE x = 'b'",
		"SELECT CONVERT(varchar(10), d, 121) FROM t WHERE x = 'c'",
	}},
	{1, []string{ // TOP in subqueries enters the WHERE text; the outer TOP enters nothing
		"SELECT TOP 10 a FROM t WHERE x IN (SELECT TOP 5 y FROM u WHERE z = 3) AND w = (SELECT TOP (1) v FROM s)",
		"SELECT TOP 20 a FROM t WHERE x IN (SELECT TOP 7 y FROM u WHERE z = 4) AND w = (SELECT TOP (2) v FROM s)",
		"SELECT TOP 10 a FROM t WHERE x IN (SELECT TOP 7 y FROM u WHERE z = 3) AND w = (SELECT TOP (1) v FROM s)",
	}},
	{1, []string{ // IN, BETWEEN and LIKE
		"SELECT a FROM t WHERE x IN (1, 2, 'c') AND y BETWEEN 1 AND 5 AND n LIKE 'ab%' AND m NOT LIKE 'z' AND k NOT IN (4)",
		"SELECT a FROM t WHERE x IN (3, 4, 'd') AND y BETWEEN 7 AND 0.5 AND n LIKE '' AND m NOT LIKE 'q' AND k NOT IN (5)",
	}},
	{1, []string{ // literals in the select list, FROM, ON, GROUP BY, HAVING and ORDER BY
		"SELECT 1, 'a' AS k, str(p.ra, 12, 7) FROM dbo.fGetNearbyObjEq(145.3, 0.12, 0.5) n JOIN p ON p.objid = n.objid AND p.type = 3 GROUP BY a HAVING count(*) > 2 ORDER BY 1",
		"SELECT 2, 'b' AS k, str(p.ra, 10, 5) FROM dbo.fGetNearbyObjEq(10.0, 0.25, 1) n JOIN p ON p.objid = n.objid AND p.type = 6 GROUP BY a HAVING count(*) > 9 ORDER BY 2",
	}},
	{1, []string{ // comments, layout and keyword case do not change the shape
		"SELECT a FROM t WHERE x = 1;",
		"select a  from t /* c */ where x = 2 -- tail\n;",
		"SELECT\ta\nFROM t WHERE x = 3;",
	}},
	{1, []string{ // set operations, CASE, EXISTS
		"SELECT a FROM t WHERE x = 1 UNION ALL SELECT CASE WHEN b > 2 THEN 'p' ELSE 'n' END FROM u WHERE EXISTS (SELECT 1 FROM v WHERE v.k = 7)",
		"SELECT a FROM t WHERE x = 9 UNION ALL SELECT CASE WHEN b > 0 THEN '' ELSE 'y' END FROM u WHERE EXISTS (SELECT 8 FROM v WHERE v.k = 6)",
	}},
}

// TestShapeBindingEdgeCases binds each family's later members from the
// shape of its first and checks every summary against the full parse.
func TestShapeBindingEdgeCases(t *testing.T) {
	for _, fam := range shapeFamilies {
		p, reg := instrumented()
		for _, s := range fam.stmts {
			pe := p.ParseEntry(logmodel.Entry{Statement: s})
			if pe.Info == nil {
				t.Fatalf("%q: class %v, err %v", s, pe.Class, pe.Err)
			}
			checkSummary(t, p, pe.Info)
		}
		binds := reg.Counter("parse_shape_binds_total").Value()
		if want := int64(len(fam.stmts) - fam.shapes); binds != want || p.shapes.n != fam.shapes {
			t.Fatalf("family of %q: %d bound and %d shapes, want %d and %d", fam.stmts[0], binds, p.shapes.n, want, fam.shapes)
		}
	}
}

// TestShapeTableCap parses statements that each use a unique identifier, so
// each has a shape of its own: the table stops at maxShapes, statements of
// shapes left out are summarized as before, and known shapes still bind.
func TestShapeTableCap(t *testing.T) {
	p, reg := instrumented()
	n := maxShapes + 300
	for i := 0; i < n; i++ {
		pe := p.ParseEntry(logmodel.Entry{Statement: fmt.Sprintf("SELECT c%d FROM t WHERE id = %d", i, i)})
		checkSummary(t, p, pe.Info)
	}
	if p.shapes.n != maxShapes || reg.Gauge("parse_shapes").Value() != maxShapes {
		t.Fatalf("table holds %d shapes (gauge %d), cap %d", p.shapes.n, reg.Gauge("parse_shapes").Value(), maxShapes)
	}
	for _, i := range []int{0, maxShapes - 1, maxShapes, n - 1} {
		pe := p.ParseEntry(logmodel.Entry{Statement: fmt.Sprintf("SELECT c%d FROM t WHERE id = %d", i, n+i)})
		checkSummary(t, p, pe.Info)
	}
	if binds := reg.Counter("parse_shape_binds_total").Value(); binds != 2 {
		t.Fatalf("%d statements bound past the cap, want the 2 whose shapes are in the table", binds)
	}
}

// TestParseParallelSameSummaries checks that ParseParallel at 1, 2 and 8
// workers, binding concurrently from one table, yields identical summaries
// (run with -race).
func TestParseParallelSameSummaries(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	for _, fam := range shapeFamilies {
		for _, s := range fam.stmts {
			l = append(l, logmodel.Entry{Statement: s})
		}
	}
	want, wantStats := NewParser().ParseParallel(l, 1)
	for _, workers := range []int{2, 8} {
		got, gotStats := NewParser().ParseParallel(l, workers)
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Class != w.Class || (g.Info == nil) != (w.Info == nil) || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
				t.Fatalf("workers=%d: entry %d (%q) differs", workers, i, g.Statement)
			}
			if g.Info != nil && !reflect.DeepEqual(*g.Info, *w.Info) {
				t.Fatalf("workers=%d: summary of %q differs:\n%+v\n%+v", workers, g.Statement, *g.Info, *w.Info)
			}
		}
	}
}

// TestFullParsesPerShape counts what still reaches the parser on a
// generated log: one statement per SELECT shape plus the statements that
// are not SELECTs or do not parse, each parsed once.
func TestFullParsesPerShape(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig())
	p, reg := instrumented()
	pl, _ := p.Parse(l)
	others := map[string]bool{}
	for _, pe := range pl {
		if pe.Class != sqlast.ClassSelect {
			others[pe.Statement] = true
		}
	}
	misses, binds := reg.Counter("parse_cache_misses_total").Value(), reg.Counter("parse_shape_binds_total").Value()
	full := misses - binds
	t.Logf("%d misses, %d bound, %d parsed: %d shapes, %d other statements", misses, binds, full, p.shapes.n, len(others))
	if full != int64(p.shapes.n+len(others)) {
		t.Fatalf("%d statements parsed, want %d shapes + %d other statements", full, p.shapes.n, len(others))
	}
	if full > 100 {
		t.Fatalf("%d statements parsed, want at most 100", full)
	}
}

// stringValues replace string literals in rewriteLiterals. They hold the
// characters that break literal handling which works on raw text: comment
// markers, statement separators and escaped quotes.
var stringValues = []string{"", "it's -- not # a /* comment", ";", "x''y'", "*/ %"}

// rewriteLiterals returns src with the values of its literals changed:
// number digits are rotated by k (a hex prefix stays) and strings take one
// of stringValues. With all set, or when src is no SELECT, every number and
// string token changes, CAST type arguments and CONVERT styles included. ok
// is false if src does not lex or the rewrite changed more than values.
func rewriteLiterals(src string, k int, all bool) (twin string, ok bool) {
	toks, err := sqltoken.Tokenize(src)
	if err != nil {
		return "", false
	}
	lits := map[*sqlast.Literal]int{}
	st, err := sqlparser.ParseTokens(src, toks, lits)
	_, isSelect := st.(*sqlast.SelectStatement)
	rewrite := make([]bool, len(toks))
	for i, t := range toks {
		rewrite[i] = (all || err != nil || !isSelect) && (t.Kind == sqltoken.Number || t.Kind == sqltoken.String)
	}
	for _, i := range lits {
		rewrite[i] = true
	}
	var b strings.Builder
	at := 0
	for i, t := range toks {
		if !rewrite[i] {
			continue
		}
		switch t.Kind {
		case sqltoken.Number:
			b.WriteString(src[at:t.Pos])
			v := []byte(t.Val)
			from := 0
			if len(v) > 1 && (v[1] == 'x' || v[1] == 'X') {
				from = 2
			}
			for j := from; j < len(v); j++ {
				if '0' <= v[j] && v[j] <= '9' {
					v[j] = '0' + (v[j]-'0'+byte(k))%10
				}
			}
			b.Write(v)
			at = t.Pos + len(t.Val)
		case sqltoken.String:
			b.WriteString(src[at:t.Pos])
			b.WriteString("'" + strings.ReplaceAll(stringValues[(i+k)%len(stringValues)], "'", "''") + "'")
			at = stringEnd(src, t.Pos)
		}
	}
	b.WriteString(src[at:])
	twin = b.String()
	ttoks, err := sqltoken.Tokenize(twin)
	if err != nil || string(appendShapeKey(nil, ttoks)) != string(appendShapeKey(nil, toks)) {
		return "", false
	}
	return twin, true
}

// stringEnd returns the offset just past the string literal starting at pos.
func stringEnd(src string, pos int) int {
	for i := pos + 1; i < len(src); i++ {
		if src[i] != '\'' {
			continue
		}
		if i+1 < len(src) && src[i+1] == '\'' {
			i++
			continue
		}
		return i + 1
	}
	return len(src)
}

// TestSkeletonIgnoresLiteralValues pins the property the shape table rests
// on: a template's fingerprint and skeleton text do not change when only
// literal values change, including strings that hold comment markers,
// semicolons and escaped quotes.
func TestSkeletonIgnoresLiteralValues(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig())
	stmts := map[string]bool{}
	for _, e := range l {
		stmts[e.Statement] = true
	}
	for _, fam := range shapeFamilies {
		for _, s := range fam.stmts {
			stmts[s] = true
		}
	}
	checked := 0
	for s := range stmts {
		sel, err := sqlparser.ParseSelect(s)
		if err != nil {
			continue
		}
		want := skeleton.Analyze(sel)
		for k := 1; k <= 4; k++ {
			twin, ok := rewriteLiterals(s, k, false)
			if !ok {
				t.Fatalf("rewriting the literals of %q changed its tokens", s)
			}
			tsel, err := sqlparser.ParseSelect(twin)
			if err != nil {
				t.Fatalf("%q parses but its rewrite %q does not: %v", s, twin, err)
			}
			got := skeleton.Analyze(tsel)
			if got.Fingerprint != want.Fingerprint || got.SkeletonText() != want.SkeletonText() {
				t.Fatalf("rewriting literals changed the template:\n%s\n%s\nskeleton\n%s\n%s", s, twin, want.SkeletonText(), got.SkeletonText())
			}
		}
		checked++
	}
	t.Logf("%d distinct SELECTs, 4 rewrites each", checked)
}

// FuzzShapeBinding primes a parser with a twin of the input whose literal
// values were rewritten, then parses the input, which binds from the twin's
// shape, and compares the result with the full parse of the input. A second
// twin, recorded first, also rewrites the numbers that are not literals: the
// input must not bind from its shape when those differ.
func FuzzShapeBinding(f *testing.F) {
	for _, fam := range shapeFamilies {
		for _, s := range fam.stmts {
			f.Add(s, uint8(1))
		}
	}
	f.Add("SELECT a FROM", uint8(3))
	f.Add("INSERT INTO t VALUES (1, 'a')", uint8(2))
	f.Fuzz(func(t *testing.T, src string, k uint8) {
		twin, ok := rewriteLiterals(src, int(k%9)+1, false)
		other, _ := rewriteLiterals(src, int(k%8)+2, true)
		if !ok {
			return
		}
		p := NewParser()
		p.ParseEntry(logmodel.Entry{Statement: other})
		p.ParseEntry(logmodel.Entry{Statement: twin})
		got := p.ParseEntry(logmodel.Entry{Statement: src})
		st, err := sqlparser.Parse(src)
		_, isSelect := st.(*sqlast.SelectStatement)
		switch {
		case err != nil:
			if got.Class != sqlast.ClassError || got.Err == nil || got.Err.Error() != err.Error() {
				t.Fatalf("%q: class %v, err %v; full parse fails with %v", src, got.Class, got.Err, err)
			}
		case !isSelect:
			if got.Class != sqlparser.Classify(src) || got.Info != nil {
				t.Fatalf("%q: class %v, full parse %v", src, got.Class, sqlparser.Classify(src))
			}
		default:
			if got.Info == nil {
				t.Fatalf("%q: class %v, full parse is a SELECT", src, got.Class)
			}
			checkSummary(t, p, got.Info)
		}
	})
}
