package logmodel

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() Log {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	return Log{
		{Seq: 0, Time: base, User: "10.0.0.1", Session: "s1", Rows: 3, Statement: "SELECT a FROM t"},
		{Seq: 1, Time: base.Add(time.Second), User: "10.0.0.2", Session: "s2", Rows: -1, Statement: "SELECT b FROM t WHERE x = 'it''s'"},
		{Seq: 2, Time: base.Add(2 * time.Second), User: "10.0.0.1", Session: "s1", Rows: 0, Statement: "SELECT c\nFROM t\tWHERE y = 1"},
	}
}

func TestTSVRoundTrip(t *testing.T) {
	in := sample()
	var buf bytes.Buffer
	if err := WriteTSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestTSVEscaping(t *testing.T) {
	in := Log{{Time: time.Unix(0, 0).UTC(), Statement: "line1\nline2\tend\\slash\rcr", Rows: -1}}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	// One entry, one line.
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("entry spans %d lines: %q", n, buf.String())
	}
	out, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Statement != in[0].Statement {
		t.Errorf("got %q, want %q", out[0].Statement, in[0].Statement)
	}
}

func TestTSVRoundTripProperty(t *testing.T) {
	f := func(stmt, user string, rows int64) bool {
		if rows < 0 {
			rows = -1
		}
		in := Log{{Time: time.Unix(1234567, 0).UTC(), User: user, Rows: rows, Statement: stmt}}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, in); err != nil {
			return false
		}
		out, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		if len(out) != 1 && !(stmt == "" && user == "") {
			// An entirely empty line is skipped; accept that corner.
			return len(out) == 0
		}
		if len(out) == 0 {
			return true
		}
		return out[0].Statement == stmt && out[0].User == user && out[0].Rows == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "2003-06-01T00:00:00.000\tonly\tthree\tfields\n",
		"bad timestamp":  "not-a-time\tu\ts\t1\tSELECT 1\n",
		"bad row count":  "2003-06-01T00:00:00.000\tu\ts\tx\tSELECT 1\n",
	}
	for name, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestReadTSVSkipsEmptyLines(t *testing.T) {
	in := "2003-06-01T00:00:00.000\tu\ts\t1\tSELECT 1\n\n2003-06-01T00:00:01.000\tu\ts\t1\tSELECT 2\n"
	out, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d entries", len(out))
	}
}

func TestSortStable(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	l := Log{
		{Seq: 2, Time: base.Add(time.Second)},
		{Seq: 1, Time: base},
		{Seq: 0, Time: base.Add(time.Second)},
	}
	l.SortStable()
	if l[0].Seq != 1 || l[1].Seq != 0 || l[2].Seq != 2 {
		t.Errorf("order: %v", l)
	}
}

func TestUsers(t *testing.T) {
	if got := sample().Users(); got != 2 {
		t.Errorf("users: %d", got)
	}
	var empty Log
	if empty.Users() != 0 {
		t.Error("empty log has no users")
	}
}

func TestStripUsers(t *testing.T) {
	in := sample()
	out := in.StripUsers()
	for _, e := range out {
		if e.User != "" || e.Session != "" {
			t.Errorf("entry not stripped: %+v", e)
		}
	}
	// Original untouched.
	if in[0].User == "" {
		t.Error("StripUsers mutated the original")
	}
	if out[1].Statement != in[1].Statement {
		t.Error("statements must be preserved")
	}
}

func TestClone(t *testing.T) {
	in := sample()
	c := in.Clone()
	c[0].Statement = "changed"
	if in[0].Statement == "changed" {
		t.Error("clone shares backing array")
	}
}

func TestUnescapeOddTrailingBackslash(t *testing.T) {
	// A lone trailing backslash must survive.
	if got := unescape([]byte(`abc\`)); got != `abc\` {
		t.Errorf("got %q", got)
	}
	if got := unescape([]byte(`a\x`)); got != `a\x` {
		t.Errorf("unknown escape: got %q", got)
	}
}

// TestWriteTSVAllocsPerEntry pins what writing costs: the writer and its
// line buffer are allocated per call, nothing per entry or per field. The
// bytes are those of the field-by-field strings.Replacer encoding.
func TestWriteTSVAllocsPerEntry(t *testing.T) {
	l := sample()
	l = append(l, Entry{Time: time.Unix(7, 0), User: `u\1`, Session: "s\t2", Rows: 12, Statement: "a\\b\rc\n"})
	esc := strings.NewReplacer("\\", `\\`, "\t", `\t`, "\n", `\n`, "\r", `\r`)
	var want strings.Builder
	for _, e := range l {
		rows := ""
		if e.Rows >= 0 {
			rows = strconv.FormatInt(e.Rows, 10)
		}
		fmt.Fprintf(&want, "%s\t%s\t%s\t%s\t%s\n", e.Time.UTC().Format(TimeFormat), esc.Replace(e.User), esc.Replace(e.Session), rows, esc.Replace(e.Statement))
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("WriteTSV wrote\n%q\nwant\n%q", buf.String(), want.String())
	}

	for len(l) < 1000 {
		l = append(l, l...)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := WriteTSV(io.Discard, l); err != nil {
			t.Fatal(err)
		}
	})
	if perEntry := allocs / float64(len(l)); perEntry > 0.01 {
		t.Fatalf("WriteTSV allocates %.3f times per entry (%.0f per call of %d entries)", perEntry, allocs, len(l))
	}
}
