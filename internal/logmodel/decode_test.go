package logmodel

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference decoder is the straightforward one ScanTSVLines replaced:
// one string per line, strings.SplitN, time.Parse and a string unescape. It
// is the oracle the in-place decoder must match line for line.

func refScanTSVLines(r io.Reader, fn func(line int, e Entry) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	seq := int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		e, err := refParseTSVLine(line)
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

func refParseTSVLine(line string) (Entry, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return Entry{}, fmt.Errorf("expected 5 tab-separated fields, got %d", len(parts))
	}
	t, err := time.Parse(TimeFormat, parts[0])
	if err != nil {
		return Entry{}, fmt.Errorf("bad timestamp: %v", err)
	}
	rows := int64(-1)
	if parts[3] != "" {
		rows, err = strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return Entry{}, fmt.Errorf("bad row count: %v", err)
		}
	}
	return Entry{
		Time:      t,
		User:      refUnescape(parts[1]),
		Session:   refUnescape(parts[2]),
		Rows:      rows,
		Statement: refUnescape(parts[4]),
	}, nil
}

func refUnescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

type decodedLine struct {
	line int
	e    Entry
}

func decodeWith(scan func(io.Reader, func(int, Entry) error) error, body []byte) ([]decodedLine, error) {
	var out []decodedLine
	err := scan(bytes.NewReader(body), func(line int, e Entry) error {
		out = append(out, decodedLine{line, e})
		return nil
	})
	return out, err
}

// checkMatchesReference decodes body with ScanTSVLines and with the
// reference decoder and requires the same entries (times compared by ==)
// and the same error: a *LineError with the same line and message, or none.
func checkMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	got, gerr := decodeWith(ScanTSVLines, body)
	want, werr := decodeWith(refScanTSVLines, body)
	if len(got) != len(want) {
		t.Fatalf("body %q: decoded %d entries, reference %d", body, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("body %q: entry %d is %+v, reference %+v", body, i, got[i], want[i])
		}
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body %q: error %v, reference %v", body, gerr, werr)
	}
	if gerr == nil {
		return
	}
	var gle, wle *LineError
	if errors.As(gerr, &gle) != errors.As(werr, &wle) {
		t.Fatalf("body %q: error %T, reference %T", body, gerr, werr)
	}
	if gle != nil && gle.Line != wle.Line {
		t.Fatalf("body %q: error at line %d, reference line %d", body, gle.Line, wle.Line)
	}
	if gerr.Error() != werr.Error() {
		t.Fatalf("body %q: error %q, reference %q", body, gerr, werr)
	}
}

// FuzzScanTSVMatchesReference feeds arbitrary bytes, as a request body or a
// log file, to ScanTSVLines and to the reference decoder.
func FuzzScanTSVMatchesReference(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTSV(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("2003-06-01T12:00:00.000\tu\\t1\ts\\\\\t7\tSELECT a\\nFROM t\\x\\\n\n\n2003-06-01T12:00:01.500\t\t\t\tSELECT b\tc\r\n"))
	f.Add([]byte("2004-02-29T23:59:59.999\tu\ts\t12\tSELECT 1\n2003-02-29T00:00:00.000\tu\ts\t1\tSELECT 1\n"))
	f.Add([]byte("2003-06-01T1:00:00.000\tu\ts\t-5\tSELECT 1\n2003-06-01T12:00:00,000\tu\ts\t+5\tSELECT 1\n"))
	f.Add([]byte("2003-06-01T12:00:00.+12\tu\ts\t1\tx\n2003-06-01T12:00:00.000Z\tu\ts\t1\tx\n"))
	f.Add([]byte("2003-06-01T12:00:00.000\tu\ts\t99999999999999999999\tx\n"))
	f.Add([]byte("2003-06-01T12:00:00.000\tu\ts\n"))
	f.Add([]byte("\n\nnot a line\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkMatchesReference(t, body)
	})
}

// TestParseTimeMatchesTimeParse walks the timestamp edges: the hand-read
// fast path and the time.Parse fallback together must accept and reject
// exactly what time.Parse does, with its time and its error.
func TestParseTimeMatchesTimeParse(t *testing.T) {
	for _, s := range []string{
		"2003-06-01T12:34:56.789",
		"2003-01-01T00:00:00.000",
		"9999-12-28T23:59:59.999",
		"0000-01-01T00:00:00.000", // year 0000
		"2004-02-29T12:00:00.000", // Feb 29, leap year
		"2003-02-29T12:00:00.000", // Feb 29, non-leap year
		"2000-02-29T12:00:00.000",
		"1900-02-29T12:00:00.000",
		"2003-01-31T12:00:00.000",
		"2003-04-31T12:00:00.000", // day 31 of a 30-day month
		"2003-04-30T12:00:00.000",
		"2003-06-00T12:00:00.000", // day 00
		"2003-06-32T12:00:00.000",
		"2003-13-01T12:00:00.000", // month 13
		"2003-00-01T12:00:00.000",
		"2003-06-01T24:00:00.000", // hour 24
		"2003-06-01T12:60:00.000", // minute 60
		"2003-06-01T12:00:60.000", // second 60
		"2003-06-01T23:59:59.999",
		"2003-06-01T12:00:00.00",   // 2 fractional digits
		"2003-06-01T12:00:00.0000", // 4 fractional digits
		"2003-06-01T12:00:00.000Z", // trailing Z
		"2003-06-01T12:00:00",
		"2003-06-01T12:00:00,000",
		"2003-06-01t12:00:00.000",
		"2003-06-01 12:00:00.000",
		"+003-06-01T12:00:00.000", // sign inside a field
		"-003-06-01T12:00:00.000",
		"2003-+6-01T12:00:00.000",
		"2003-06--1T12:00:00.000",
		"2003-06-01T+1:00:00.000",
		"2003-06-01T12:-1:00.000",
		"2003-06-01T12:00:00.+12",
		"2003-06-01T12:00:00.-12",
		"2003-06-01T12:00:00. 12",
		"2003-06-01T 1:00:00.000", // space inside a field
		"2003-06- 1T12:00:00.000",
		" 003-06-01T12:00:00.000",
		"2003-06-01T1:00:00.000", // one-digit hour: time.Parse takes it
		"2003-06-01T12:0:00.000",
		"２００３-06-01T12:00:00.000", // non-ASCII digits
		"2003-06-01T12:00:00.٠٠٠",
		"2003-06-01T12:00:00.00\x00",
		"",
		"2003-06-01",
	} {
		got, gerr := parseTime([]byte(s))
		want, werr := time.Parse(TimeFormat, s)
		if got != want {
			t.Errorf("%q: parsed %v, time.Parse %v", s, got, want)
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%q: error %v, time.Parse %v", s, gerr, werr)
		}
	}
}

// TestParseRowsMatchesParseInt covers the row-count field's fast path and
// its strconv fallback.
func TestParseRowsMatchesParseInt(t *testing.T) {
	for _, s := range []string{
		"0", "7", "0012", "123456789012345678", "1234567890123456789",
		"9223372036854775807", "9223372036854775808", "-1", "+1", "1_000", " 1", "1 ", "x", "１",
	} {
		got, gerr := parseRows([]byte(s))
		want, werr := strconv.ParseInt(s, 10, 64)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%q: %d, %v; strconv.ParseInt %d, %v", s, got, gerr, want, werr)
		}
	}
	if n, err := parseRows(nil); n != -1 || err != nil {
		t.Errorf("empty field: %d, %v; want -1 (unknown)", n, err)
	}
}
