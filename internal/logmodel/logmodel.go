// Package logmodel defines the query-log representation shared by every
// stage of the framework: one Entry per logged statement, plus a streaming
// TSV reader and writer so that large logs never need to be held as raw
// text. The SkyServer log columns the paper relies on — statement,
// timestamp, client IP, session label and result-row count — are all
// modeled; only statement and timestamp are mandatory (paper §6.8).
package logmodel

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlclean/internal/parallel"
)

// Entry is one record of a SQL query log.
type Entry struct {
	// Seq is the 0-based position in the original log; it breaks ties when
	// two statements share a timestamp and keeps ordering stable.
	Seq int64
	// Time is when the statement was executed.
	Time time.Time
	// User identifies the requester (an IP address in SkyServer). Empty
	// when the log carries no user information.
	User string
	// Session is the user-session label, if logged.
	Session string
	// Rows is the result-row count reported by the server; -1 when unknown.
	Rows int64
	// Statement is the raw SQL text.
	Statement string
}

// Log is an in-memory query log.
type Log []Entry

// entryLess is the (Time, Seq) pipeline order every stage assumes.
func entryLess(a, b *Entry) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.Seq < b.Seq
}

// SortStable orders the log by (Time, Seq). All pipeline stages assume this
// order.
func (l Log) SortStable() {
	sort.SliceStable(l, func(i, j int) bool {
		return entryLess(&l[i], &l[j])
	})
}

// IsSorted reports whether the log is already in (Time, Seq) order — true
// for any log that came out of ScanTSV on a time-ordered file, which lets
// the pipeline skip the input sort entirely.
func (l Log) IsSorted() bool {
	for i := 1; i < len(l); i++ {
		if entryLess(&l[i], &l[i-1]) {
			return false
		}
	}
	return true
}

// sortMinParallel is the log size below which a parallel sort's fan-out and
// merge-buffer overhead cannot win over one in-place stable sort.
const sortMinParallel = 4096

// SortStableParallel is SortStable using up to `workers` goroutines: the log
// is cut into contiguous runs sorted concurrently, then stably merged
// pairwise (ties prefer the left run). Because a stable sort's output is
// unique, the result is bit-identical to SortStable for every worker count.
func (l Log) SortStableParallel(workers int) {
	w := parallel.Workers(workers)
	n := len(l)
	if w <= 1 || n < sortMinParallel {
		l.SortStable()
		return
	}
	bounds := make([]int, 0, w+1)
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, n)
	parallel.ShardRun(w, len(bounds)-1, func(i int) {
		l[bounds[i]:bounds[i+1]].SortStable()
	})

	buf := make(Log, n)
	src, dst := l, buf
	for len(bounds) > 2 {
		type span struct{ lo, mid, hi int }
		merges := make([]span, 0, len(bounds)/2+1)
		nb := make([]int, 0, len(bounds)/2+2)
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			merges = append(merges, span{bounds[i], bounds[i+1], bounds[i+2]})
			nb = append(nb, bounds[i])
		}
		if i+2 == len(bounds) {
			// Odd run count: the last run has no partner this round and is
			// carried through (mergeRuns with mid == hi is a copy).
			merges = append(merges, span{bounds[i], bounds[i+1], bounds[i+1]})
			nb = append(nb, bounds[i])
		}
		nb = append(nb, n)
		parallel.ShardRun(w, len(merges), func(k int) {
			s := merges[k]
			mergeRuns(dst, src, s.lo, s.mid, s.hi)
		})
		src, dst = dst, src
		bounds = nb
	}
	if &src[0] != &l[0] {
		copy(l, src)
	}
}

// mergeRuns stably merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi], preferring the left run on ties so relative order of equal
// entries is preserved.
func mergeRuns(dst, src Log, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if entryLess(&src[j], &src[i]) {
			dst[k] = src[j]
			j++
		} else {
			dst[k] = src[i]
			i++
		}
		k++
	}
	if i < mid {
		copy(dst[k:hi], src[i:mid])
	} else {
		copy(dst[k:hi], src[j:hi])
	}
}

// Users returns the number of distinct users in the log.
func (l Log) Users() int {
	set := map[string]bool{}
	for _, e := range l {
		set[e.User] = true
	}
	return len(set)
}

// StripUsers returns a copy of the log with user and session information
// removed, emulating the minimal-input experiment of paper §6.8.
func (l Log) StripUsers() Log {
	out := make(Log, len(l))
	for i, e := range l {
		e.User = ""
		e.Session = ""
		out[i] = e
	}
	return out
}

// Clone returns a deep copy of the log (entries are value types).
func (l Log) Clone() Log {
	out := make(Log, len(l))
	copy(out, l)
	return out
}

// ---------------------------------------------------------------------------
// TSV serialization
// ---------------------------------------------------------------------------

// TimeFormat is the on-disk timestamp layout.
const TimeFormat = "2006-01-02T15:04:05.000"

// appendEscaped appends s with backslashes, tabs and line breaks escaped,
// so one entry stays one TSV line. Runs without any of those characters,
// nearly all of a field, are copied in one piece.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var c byte
		switch s[i] {
		case '\\':
			c = '\\'
		case '\t':
			c = 't'
		case '\n':
			c = 'n'
		case '\r':
			c = 'r'
		default:
			continue
		}
		b = append(append(b, s[start:i]...), '\\', c)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// unescape returns a field with appendEscaped's escapes undone, as a new
// string. A field without a backslash, nearly every one, is copied in one
// piece. An unknown escape or a lone trailing backslash is kept as written.
func unescape(b []byte) string {
	i := bytes.IndexByte(b, '\\')
	if i < 0 {
		return string(b)
	}
	var sb strings.Builder
	sb.Grow(len(b))
	sb.Write(b[:i])
	for ; i < len(b); i++ {
		if b[i] != '\\' || i+1 >= len(b) {
			sb.WriteByte(b[i])
			continue
		}
		i++
		switch b[i] {
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case '\\':
			sb.WriteByte('\\')
		default:
			sb.WriteByte('\\')
			sb.WriteByte(b[i])
		}
	}
	return sb.String()
}

// WriteTSV writes the log as tab-separated lines:
// time, user, session, rows, statement.
func WriteTSV(w io.Writer, l Log) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range l {
		line = AppendTSV(line[:0], e)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendTSV appends e as one WriteTSV line, newline included. Writers that
// emit entries one at a time use it with a buffer of their own.
func AppendTSV(b []byte, e Entry) []byte {
	b = e.Time.UTC().AppendFormat(b, TimeFormat)
	b = appendEscaped(append(b, '\t'), e.User)
	b = appendEscaped(append(b, '\t'), e.Session)
	b = append(b, '\t')
	if e.Rows >= 0 {
		b = strconv.AppendInt(b, e.Rows, 10)
	}
	b = appendEscaped(append(b, '\t'), e.Statement)
	return append(b, '\n')
}

// LineError is a TSV parse failure that knows which input line it came
// from. Line counts every line of the input, including blank lines the
// scanner skips — it is the number an editor or a `sed -n Np` would show.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("logmodel: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ScanTSV streams a TSV log entry by entry, calling fn for each record —
// constant memory regardless of log size. Seq numbers are assigned in file
// order. fn returning an error stops the scan and propagates the error.
// Parse failures are returned as *LineError.
func ScanTSV(r io.Reader, fn func(Entry) error) error {
	return ScanTSVLines(r, func(_ int, e Entry) error { return fn(e) })
}

// ScanTSVLines is ScanTSV with the input's real 1-based line number passed
// to the callback. Entry indices and line numbers diverge whenever the
// input has blank lines, so any caller reporting a position to a human (or
// an HTTP client retrying a failed batch) needs the line, not the count of
// entries seen so far.
func ScanTSVLines(r io.Reader, fn func(line int, e Entry) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	seq := int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := parseTSVLine(line)
		if err != nil {
			return &LineError{Line: lineNo, Err: err}
		}
		e.Seq = seq
		seq++
		if err := fn(lineNo, e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parseTSVLine decodes one line in place: the scanner's buffer is cut into
// the five fields, and only the three text fields are copied out.
func parseTSVLine(line []byte) (Entry, error) {
	var f [5][]byte
	n := 0
	for ; n < 4; n++ {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		f[n], line = line[:i], line[i+1:]
	}
	f[n] = line
	if n < 4 {
		return Entry{}, fmt.Errorf("expected 5 tab-separated fields, got %d", n+1)
	}
	t, err := parseTime(f[0])
	if err != nil {
		return Entry{}, fmt.Errorf("bad timestamp: %v", err)
	}
	rows, err := parseRows(f[3])
	if err != nil {
		return Entry{}, fmt.Errorf("bad row count: %v", err)
	}
	return Entry{
		Time:      t,
		User:      unescape(f[1]),
		Session:   unescape(f[2]),
		Rows:      rows,
		Statement: unescape(f[4]),
	}, nil
}

// parseTime reads a TimeFormat timestamp. When every field is ASCII digits
// in a range that every month accepts (days 1–28), it builds the time by
// hand; anything else, such as day 31 or a one-digit hour, goes to
// time.Parse, so exactly what time.Parse accepts is accepted, with its
// result and its error.
func parseTime(b []byte) (time.Time, error) {
	if len(b) == len(TimeFormat) && b[4] == '-' && b[7] == '-' && b[10] == 'T' && b[13] == ':' && b[16] == ':' && b[19] == '.' {
		year, ok0 := digits(b[0:4])
		month, ok1 := digits(b[5:7])
		day, ok2 := digits(b[8:10])
		hour, ok3 := digits(b[11:13])
		minute, ok4 := digits(b[14:16])
		sec, ok5 := digits(b[17:19])
		ms, ok6 := digits(b[20:23])
		if ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
			month >= 1 && month <= 12 && day >= 1 && day <= 28 && hour < 24 && minute < 60 && sec < 60 {
			return time.Date(int(year), time.Month(month), int(day), int(hour), int(minute), int(sec), int(ms)*int(time.Millisecond), time.UTC), nil
		}
	}
	return time.Parse(TimeFormat, string(b))
}

// parseRows reads the row-count field: empty is unknown (-1). Up to 18
// ASCII digits cannot overflow and are read by hand; anything else goes to
// strconv.ParseInt, for its result and its error.
func parseRows(b []byte) (int64, error) {
	if len(b) == 0 {
		return -1, nil
	}
	if len(b) <= 18 {
		if n, ok := digits(b); ok {
			return n, nil
		}
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// digits reads b as an unsigned decimal number; ok is false unless every
// byte is an ASCII digit. The caller bounds len(b) so the value fits.
func digits(b []byte) (n int64, ok bool) {
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// ReadTSV reads a log previously written by WriteTSV. Seq numbers are
// assigned in file order.
func ReadTSV(r io.Reader) (Log, error) {
	var out Log
	err := ScanTSV(r, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
