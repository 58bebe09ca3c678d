package parsedlog

import (
	"testing"
	"time"
	"unsafe"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/sqlast"
)

func mkLog(stmts ...string) logmodel.Log {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var l logmodel.Log
	for i, s := range stmts {
		l = append(l, logmodel.Entry{Seq: int64(i), Time: base.Add(time.Duration(i) * time.Second), User: "u", Statement: s})
	}
	return l
}

func TestParseClassifies(t *testing.T) {
	l := mkLog(
		"SELECT a FROM t",
		"INSERT INTO t VALUES (1)",
		"CREATE TABLE x (a int)",
		"EXEC sp_x",
		"SELECT FROM t",
	)
	pl, st := Parse(l)
	if st.Selects != 1 || st.DML != 1 || st.DDL != 1 || st.Exec != 1 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Total() != 5 {
		t.Errorf("total: %d", st.Total())
	}
	if pl[0].Info == nil || pl[0].Class != sqlast.ClassSelect {
		t.Errorf("select entry: %+v", pl[0])
	}
	if pl[1].Info != nil {
		t.Error("DML entry must have no Info")
	}
	if pl[4].Err == nil {
		t.Error("error entry must carry the parse error")
	}
}

// TestParseCacheSharesInfo checks the sharing contract: identical texts
// always carry equal summaries, and while the text stays cached (here it
// cannot leave) one Info and one statement string.
func TestParseCacheSharesInfo(t *testing.T) {
	l := mkLog("SELECT a FROM t WHERE id = 1", "SELECT a FROM t WHERE id = 1")
	l[1].Statement = string([]byte(l[1].Statement))
	pl, _ := Parse(l)
	if pl[0].Info != pl[1].Info || unsafe.StringData(pl[0].Statement) != unsafe.StringData(pl[1].Statement) {
		t.Error("identical cached statements must share one Info and one string")
	}
	l2 := mkLog("SELECT a FROM t WHERE id = 1", "SELECT a FROM t WHERE id = 2")
	pl2, _ := Parse(l2)
	if pl2[0].Info == pl2[1].Info {
		t.Error("different statements must not share Info")
	}
	// Same template, still distinct Info structs.
	if pl2[0].Info.Fingerprint != pl2[1].Info.Fingerprint {
		t.Error("same template must share a fingerprint")
	}
}

func TestSelectsFilter(t *testing.T) {
	l := mkLog("SELECT a FROM t", "DROP TABLE t", "SELECT b FROM t")
	pl, _ := Parse(l)
	sel := pl.Selects()
	if len(sel) != 2 {
		t.Fatalf("selects: %d", len(sel))
	}
	if sel[0].Statement != "SELECT a FROM t" || sel[1].Statement != "SELECT b FROM t" {
		t.Errorf("order: %+v", sel)
	}
}

func TestRawRoundTrip(t *testing.T) {
	l := mkLog("SELECT a FROM t", "SELECT b FROM t")
	pl, _ := Parse(l)
	raw := pl.Raw()
	if len(raw) != 2 || raw[0].Statement != l[0].Statement || raw[1].Seq != l[1].Seq {
		t.Errorf("raw: %+v", raw)
	}
}

// TestParserReuse checks that the cache lives across calls: a text parsed
// by one call is a hit for the next.
func TestParserReuse(t *testing.T) {
	p := NewParser()
	e1 := p.ParseEntry(logmodel.Entry{Statement: "SELECT a FROM t"})
	e2 := p.ParseEntry(logmodel.Entry{Statement: "SELECT a FROM t"})
	if e1.Info != e2.Info {
		t.Error("parser cache not shared across calls")
	}
}
