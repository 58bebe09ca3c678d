package sqlparser

import (
	"testing"

	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqltoken"
)

// FuzzParse throws arbitrary bytes at the parser: it must never panic, and
// whenever it accepts a SELECT, the printer's output must reparse to the
// same canonical form (the round-trip invariant) and ParseTokens must map
// every number and string literal of the tree to the token it came from,
// which the parse cache's shape table relies on. Run with
// `go test -fuzz=FuzzParse ./internal/sqlparser` for real fuzzing; under
// plain `go test` the seed corpus below is exercised.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t WHERE a = 1",
		"SELECT * FROM dbo.fGetNearestObjEq(145.38708,0.12532,0.1);",
		"SELECT g.objid FROM photoobjall as g JOIN f(@ra) gn on g.objid=gn.objid",
		"SELECT TOP 5 PERCENT a, count(*) FROM t GROUP BY a HAVING count(*) > 1 ORDER BY a DESC",
		"SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END FROM t",
		"SELECT CAST(a AS varchar(30)) FROM t WHERE b BETWEEN 1 AND 2",
		"SELECT a FROM t1 UNION ALL SELECT a FROM t2",
		"SELECT 'it''s' FROM [my table] WHERE x <> NULL",
		"INSERT INTO t VALUES (1)",
		"SELECT -- comment\n a FROM t /* block */",
		"SELECT a FROM",
		"SELEC T",
		"",
		"@@",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u)",
		"SELECT TOP 3 a FROM t WHERE a = -5 AND b > - -2 AND c < -+0x1F",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		sel, ok := st.(*sqlast.SelectStatement)
		if !ok {
			return
		}
		printed := sqlast.Print(sel, sqlast.PrintOptions{})
		re, err := ParseSelect(printed)
		if err != nil {
			t.Fatalf("printer output does not reparse: %q (from %q): %v", printed, src, err)
		}
		if c1, c2 := sqlast.Canonical(sel), sqlast.Canonical(re); c1 != c2 {
			t.Fatalf("canonical form unstable:\n1: %s\n2: %s", c1, c2)
		}
		checkLiteralOrigins(t, src)
		// Skeleton analysis must not panic on anything the parser accepts.
		in := skeleton.Analyze(sel)
		if in.Fingerprint == 0 && in.SkeletonText() != "" {
			// A zero FNV fingerprint is astronomically unlikely; treat it
			// as corruption.
			t.Fatalf("zero fingerprint for %q", printed)
		}
	})
}

// checkLiteralOrigins fails unless ParseTokens maps each number and string
// literal of src's tree to a distinct token of the same kind whose value is
// the literal's, or the literal's without a folded unary minus.
func checkLiteralOrigins(t *testing.T, src string) {
	t.Helper()
	toks, err := sqltoken.Tokenize(src)
	if err != nil {
		t.Fatalf("%q parses but does not lex: %v", src, err)
	}
	lits := map[*sqlast.Literal]int{}
	st, err := ParseTokens(src, toks, lits)
	if err != nil {
		t.Fatalf("%q parses but not from its tokens: %v", src, err)
	}
	seen := map[int]bool{}
	check := func(l *sqlast.Literal) {
		if l.Kind == "null" {
			return
		}
		i, ok := lits[l]
		if !ok || seen[i] {
			t.Fatalf("%q: literal %+v has no token of its own", src, *l)
		}
		seen[i] = true
		tok := toks[i]
		kindOK := (l.Kind == "num" && tok.Kind == sqltoken.Number) || (l.Kind == "str" && tok.Kind == sqltoken.String)
		if !kindOK || (l.Val != tok.Val && l.Val != "-"+tok.Val) {
			t.Fatalf("%q: literal %+v maps to token %v", src, *l, tok)
		}
	}
	sqlast.Walk(st, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.Literal:
			check(x)
		case *sqlast.SelectStatement:
			if x.Top != nil {
				check(x.Top)
			}
		}
		return true
	})
}

// FuzzSplitStatements checks the lexer-driven splitter never panics and
// yields statements that concatenate (with separators) into the input's
// token stream.
func FuzzSplitStatements(f *testing.F) {
	for _, s := range []string{
		"SELECT 1; SELECT 2",
		"SELECT 'a;b'; SELECT 2;",
		";;;",
		"SELECT [x;y] FROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parts, err := SplitStatements(src)
		if err != nil {
			return
		}
		for _, p := range parts {
			if p == "" {
				t.Fatal("empty statement emitted")
			}
		}
	})
}
