package sqltoken

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func vals(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Val
	}
	return out
}

func TestTokenizeBasicSelect(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a = 10")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{Keyword, Ident, Op, Ident, Keyword, Ident, Keyword, Ident, Op, Number}
	got := kinds(toks)
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d tokens %v, want %d", len(got), toks, len(wantKinds))
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] {
			t.Errorf("token %d: got %v, want %v (%v)", i, got[i], wantKinds[i], toks[i])
		}
	}
}

func TestKeywordsAreUppercasedAndIdentsKeepCase(t *testing.T) {
	toks, err := Tokenize("select MyCol from MyTable")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT", "MyCol", "FROM", "MyTable"}
	got := vals(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if toks[0].Kind != Keyword || toks[1].Kind != Ident {
		t.Errorf("kind mismatch: %v", toks)
	}
	// Every word of the keyword table lexes as a keyword in any case;
	// column names such as objid stay identifiers.
	for kw := range keywords {
		toks, err := Tokenize(strings.ToLower(kw) + " objid")
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != 2 || toks[0].Kind != Keyword || toks[0].Val != kw || toks[1].Kind != Ident {
			t.Errorf("%s: got %v", kw, toks)
		}
	}
}

func TestStringLiteralWithEscapedQuote(t *testing.T) {
	toks, err := Tokenize("SELECT 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[1].Kind != String || toks[1].Val != "it's" {
		t.Fatalf("got %v", toks)
	}
}

func TestUnterminatedString(t *testing.T) {
	_, err := Tokenize("SELECT 'oops")
	if err == nil || !strings.Contains(err.Error(), "unterminated string") {
		t.Fatalf("want unterminated string error, got %v", err)
	}
}

func TestBracketedIdentifier(t *testing.T) {
	toks, err := Tokenize("SELECT [my col] FROM [my table]")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != QuotedIdent || toks[1].Val != "my col" {
		t.Fatalf("got %v", toks[1])
	}
	if toks[3].Kind != QuotedIdent || toks[3].Val != "my table" {
		t.Fatalf("got %v", toks[3])
	}
}

func TestUnterminatedBracket(t *testing.T) {
	_, err := Tokenize("SELECT [oops FROM t")
	if err == nil {
		t.Fatal("want error for unterminated bracket")
	}
}

func TestDoubleQuotedIdentifier(t *testing.T) {
	toks, err := Tokenize(`SELECT "quoted name"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != QuotedIdent || toks[1].Val != "quoted name" {
		t.Fatalf("got %v", toks[1])
	}
}

func TestVariables(t *testing.T) {
	toks, err := Tokenize("SELECT @ra, @@rowcount")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != Variable || toks[1].Val != "@ra" {
		t.Fatalf("got %v", toks[1])
	}
	if toks[3].Kind != Variable || toks[3].Val != "@@rowcount" {
		t.Fatalf("got %v", toks[3])
	}
}

func TestBareAtSignIsError(t *testing.T) {
	if _, err := Tokenize("SELECT @ FROM t"); err == nil {
		t.Fatal("want error for bare @")
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		"42":       "42",
		"3.14":     "3.14",
		".5":       ".5",
		"1e10":     "1e10",
		"2.5E-3":   "2.5E-3",
		"0x1Fab":   "0x1Fab",
		"6.7e+2":   "6.7e+2",
		"75094094": "75094094",
	}
	for in, want := range cases {
		toks, err := Tokenize(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(toks) != 1 || toks[0].Kind != Number || toks[0].Val != want {
			t.Errorf("%q: got %v", in, toks)
		}
	}
}

func TestNumberFollowedByIdentifierLetterE(t *testing.T) {
	// "12e" is not a valid exponent; the e belongs to the next token stream.
	toks, err := Tokenize("12easter")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Val != "12" || toks[1].Val != "easter" {
		t.Fatalf("got %v", toks)
	}
}

func TestLineComment(t *testing.T) {
	toks, err := Tokenize("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	got := vals(toks)
	want := []string{"SELECT", "a", "FROM", "t"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestNestedBlockComment(t *testing.T) {
	toks, err := Tokenize("SELECT /* outer /* inner */ still outer */ a")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[1].Val != "a" {
		t.Fatalf("got %v", toks)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := Tokenize("SELECT /* oops"); err == nil {
		t.Fatal("want error for unterminated block comment")
	}
}

func TestKeepComments(t *testing.T) {
	l := NewLexer("-- note\nSELECT 1")
	l.KeepComments = true
	first := l.Next()
	if first.Kind != Comment || first.Val != "-- note" {
		t.Fatalf("got %v", first)
	}
}

func TestTwoByteOperators(t *testing.T) {
	toks, err := Tokenize("a <> b <= c >= d != e")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == Op {
			ops = append(ops, tok.Val)
		}
	}
	want := []string{"<>", "<=", ">=", "!="}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d: got %q want %q", i, ops[i], want[i])
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Tokenize("SELECT a ? b"); err == nil {
		t.Fatal("want error for '?'")
	}
}

func TestPositionsAreMonotonic(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a = 'x' AND b >= 3.5 -- c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(toks); i++ {
		if toks[i].Pos <= toks[i-1].Pos {
			t.Fatalf("positions not monotonic: %v", toks)
		}
	}
}

func TestCanon(t *testing.T) {
	if Canon("MyTable") != "MYTABLE" {
		t.Errorf("got %q", Canon("MyTable"))
	}
}

// TestLexerNeverPanics feeds arbitrary strings; the lexer must terminate
// with tokens or an error, never panic or loop.
func TestLexerNeverPanics(t *testing.T) {
	f := func(s string) bool {
		l := NewLexer(s)
		for i := 0; i < len(s)+10; i++ {
			tok := l.Next()
			if tok.Kind == EOF {
				return true
			}
		}
		// Every Next call consumes at least one byte, so len(s)+10
		// iterations must reach EOF.
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTokenValuesCoverInput checks that for well-formed SQL-ish inputs the
// concatenated token extents never overlap and stay in bounds.
func TestTokenExtentsInBounds(t *testing.T) {
	inputs := []string{
		"SELECT a FROM b WHERE c = 'd' AND e >= 1.5",
		"select [x y], \"z\" from t1, t2",
		"SELECT @v, count(*) FROM t GROUP BY a",
	}
	for _, in := range inputs {
		toks, err := Tokenize(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		for _, tok := range toks {
			if tok.Pos < 0 || tok.Pos >= len(in) {
				t.Errorf("%q: token %v out of bounds", in, tok)
			}
		}
	}
}
