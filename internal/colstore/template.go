// Lexical templatization: the reversible split of a statement into a
// skeleton (the SQL text with literals cut out) and its parameter values
// (the literals' exact source bytes, in order). "Query Log Compression for
// Workload Analytics" builds its whole store on this factoring: a log is a
// tiny dictionary of skeletons plus dense parameter columns, because real
// workloads repeat a handful of query shapes with different constants.
//
// Unlike the pipeline's AST skeleton (internal/skeleton), which normalizes
// whitespace, case and clause structure, this split must lose NOTHING: the
// retention store's contract is that Join(Split(s)) == s for every input
// byte. So the scanner works on the raw text, recognizing exactly two
// literal classes — single-quoted strings (a doubled quote inside escapes a
// quote) and numeric literals — and leaving everything else, including
// whitespace and comments, in the skeleton verbatim.
package colstore

// slotByte marks one parameter position in a skeleton. 0x1A (ASCII SUB) can
// never appear in the skeleton text produced by Split: a statement that
// contains it is stored opaque (whole text as the skeleton, zero slots), so
// reconstruction stays exact for arbitrary byte strings.
const slotByte = 0x1A

// Split cuts statement into a skeleton and its literal parameter values.
// opaque reports that the statement could not be templatized (it contains
// slotByte itself); the skeleton is then the statement verbatim and params
// is nil. Join(skeleton, params) restores the input exactly.
func Split(statement string) (skeleton string, params []string, opaque bool) {
	for i := 0; i < len(statement); i++ {
		if statement[i] == slotByte {
			return statement, nil, true
		}
	}
	var sk []byte
	last := 0 // start of the pending non-literal run
	i := 0
	for i < len(statement) {
		c := statement[i]
		switch {
		case c == '\'':
			end := scanString(statement, i)
			sk = append(sk, statement[last:i]...)
			sk = append(sk, slotByte)
			params = append(params, statement[i:end])
			i, last = end, end
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(statement) && isDigit(statement[i+1]):
			if i > 0 && isWordByte(statement[i-1]) {
				// Digits inside an identifier (photoObj2, x1) are not literals.
				i++
				continue
			}
			end := scanNumber(statement, i)
			sk = append(sk, statement[last:i]...)
			sk = append(sk, slotByte)
			params = append(params, statement[i:end])
			i, last = end, end
		case c == '-' && i+1 < len(statement) && statement[i+1] == '-':
			i = scanLineComment(statement, i)
		case c == '/' && i+1 < len(statement) && statement[i+1] == '*':
			i = scanBlockComment(statement, i)
		case c == '[':
			i = scanBracket(statement, i)
		case c == '"':
			i = scanDoubleQuoted(statement, i)
		case isWordByte(c):
			// Skip the whole word so a trailing digit run (col3) is never
			// mistaken for a number.
			for i < len(statement) && isWordByte(statement[i]) {
				i++
			}
		default:
			i++
		}
	}
	sk = append(sk, statement[last:]...)
	return string(sk), params, false
}

// Join reverses Split: each slot byte in the skeleton is replaced by the
// next parameter. It is the block decoder's statement reconstruction.
func Join(skeleton string, params []string) string {
	if len(params) == 0 {
		return skeleton
	}
	n := len(skeleton) - len(params)
	for _, p := range params {
		n += len(p)
	}
	out := make([]byte, 0, n)
	pi := 0
	last := 0
	for i := 0; i < len(skeleton); i++ {
		if skeleton[i] != slotByte {
			continue
		}
		out = append(out, skeleton[last:i]...)
		if pi < len(params) {
			out = append(out, params[pi]...)
			pi++
		}
		last = i + 1
	}
	out = append(out, skeleton[last:]...)
	return string(out)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isWordByte(c byte) bool {
	return c == '_' || c == '#' || c == '$' || c == '@' ||
		c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

// scanString returns the index just past a single-quoted string starting at
// i (a doubled quote inside is an escaped quote). An unterminated string runs
// to end of input — still reversible, the raw bytes are the parameter.
func scanString(s string, i int) int {
	i++ // opening quote
	for i < len(s) {
		if s[i] == '\'' {
			if i+1 < len(s) && s[i+1] == '\'' {
				i += 2
				continue
			}
			return i + 1
		}
		i++
	}
	return i
}

// scanNumber returns the index just past a numeric literal: digits, at most
// one dot, and an exponent suffix. It deliberately keeps the grammar simple
// and prefix-closed — whatever it consumes is replayed verbatim on Join.
func scanNumber(s string, i int) int {
	seenDot := false
	for i < len(s) {
		c := s[i]
		switch {
		case isDigit(c):
			i++
		case c == '.' && !seenDot:
			seenDot = true
			i++
		case (c == 'e' || c == 'E') && i+1 < len(s) &&
			(isDigit(s[i+1]) || (s[i+1] == '+' || s[i+1] == '-') && i+2 < len(s) && isDigit(s[i+2])):
			i += 2 // consume 'e' and sign-or-digit; digit loop eats the rest
		default:
			return i
		}
	}
	return i
}

func scanLineComment(s string, i int) int {
	for i < len(s) && s[i] != '\n' {
		i++
	}
	return i
}

func scanBlockComment(s string, i int) int {
	i += 2
	for i+1 < len(s) {
		if s[i] == '*' && s[i+1] == '/' {
			return i + 2
		}
		i++
	}
	return len(s)
}

func scanBracket(s string, i int) int {
	for i++; i < len(s); i++ {
		if s[i] == ']' {
			return i + 1
		}
	}
	return i
}

func scanDoubleQuoted(s string, i int) int {
	for i++; i < len(s); i++ {
		if s[i] == '"' {
			return i + 1
		}
	}
	return i
}

// Fingerprint is the stable template ID of a skeleton: FNV-1a over the
// skeleton bytes. Stable across blocks, processes and versions — the ID a
// template keeps for its whole retention history.
func Fingerprint(skeleton string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(skeleton); i++ {
		h ^= uint64(skeleton[i])
		h *= prime64
	}
	return h
}
