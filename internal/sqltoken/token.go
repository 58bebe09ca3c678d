// Package sqltoken implements a lexer for the T-SQL-ish dialect used by
// SkyServer-style query logs. It turns raw statement text into a stream of
// tokens consumed by package sqlparser.
package sqltoken

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds. Keywords are folded into Keyword with the upper-cased text in
// Token.Val; this keeps the parser's keyword matching case-insensitive
// without a large enum.
const (
	EOF Kind = iota
	Ident
	QuotedIdent // [bracketed] or "double quoted" identifier
	Keyword
	Number
	String   // 'single quoted'
	Variable // @name
	Op       // operator or punctuation: = <> <= >= < > + - * / % . , ( ) ;
	Comment  // -- line or /* block */ (usually skipped)
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case QuotedIdent:
		return "QuotedIdent"
	case Keyword:
		return "Keyword"
	case Number:
		return "Number"
	case String:
		return "String"
	case Variable:
		return "Variable"
	case Op:
		return "Op"
	case Comment:
		return "Comment"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical unit of a SQL statement.
type Token struct {
	Kind Kind
	// Val is the token text. Keywords are upper-cased; identifiers keep
	// their original case (SQL identifiers compare case-insensitively, which
	// callers handle via Canon). Quoted identifiers and strings hold the
	// unquoted content.
	Val string
	// Pos is the byte offset of the token start in the input.
	Pos int
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d", t.Kind, t.Val, t.Pos)
}

// keywords are the reserved words recognized by the lexer. Anything else is
// an Ident. The set covers the SELECT dialect plus enough DML/DDL to classify
// non-SELECT statements.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "TOP": true,
	"DISTINCT": true, "ALL": true, "AS": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "IS": true, "NULL": true, "EXISTS": true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "APPLY": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "DROP": true, "ALTER": true, "TABLE": true,
	"VIEW": true, "INDEX": true, "EXEC": true, "EXECUTE": true,
	"DECLARE": true, "TRUNCATE": true, "GRANT": true, "REVOKE": true,
	"PROCEDURE": true, "FUNCTION": true, "RETURNS": true, "BEGIN": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"CAST": true, "CONVERT": true,
}

// maxKeywordLen is the longest keyword's length; longer words can never be
// keywords, so KeywordCanon rejects them without touching the map.
const maxKeywordLen = 9

// keywordCanon maps every keyword to its interned canonical spelling, so
// the lexer can hand out keyword token values without allocating.
var keywordCanon = func() map[string]string {
	m := make(map[string]string, len(keywords))
	for k := range keywords {
		m[k] = k
	}
	return m
}()

// KeywordCanon reports whether word is a keyword regardless of case and, if
// so, returns its canonical upper-case spelling. The returned string is
// interned — the call never allocates, unlike strings.ToUpper(word).
func KeywordCanon(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywordCanon[string(buf[:len(word)])]
	return kw, ok
}
