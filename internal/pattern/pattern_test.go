package pattern

import (
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/session"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/workload"
)

func buildLog(entries ...logmodel.Entry) (parsedlog.Log, []session.Session) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range entries {
		entries[i].Seq = int64(i)
		entries[i].Time = base.Add(time.Duration(i) * time.Second)
	}
	pl, _ := parsedlog.Parse(entries)
	sess := session.Build(entries, session.Options{})
	return pl, sess
}

func e(user, stmt string) logmodel.Entry {
	return logmodel.Entry{User: user, Statement: stmt}
}

func TestTemplatesFrequencyAndPopularity(t *testing.T) {
	pl, _ := buildLog(
		e("u1", "SELECT a FROM t WHERE id = 1"),
		e("u1", "SELECT a FROM t WHERE id = 2"),
		e("u2", "SELECT a FROM t WHERE id = 3"),
		e("u2", "SELECT b FROM t WHERE id = 3"),
		e("u3", "INSERT INTO t VALUES (1)"), // ignored: not a SELECT
	)
	ts := Templates(pl)
	if len(ts) != 2 {
		t.Fatalf("templates: %+v", ts)
	}
	top := ts[0]
	if top.Frequency != 3 || top.UserPopularity != 2 {
		t.Errorf("top: %+v", top)
	}
	if top.Skeleton != "SELECT a FROM t WHERE id = <num>" {
		t.Errorf("skeleton: %q", top.Skeleton)
	}
	if top.DistinctWhere != 3 {
		t.Errorf("distinct where: %d", top.DistinctWhere)
	}
	if top.Example == "" {
		t.Error("missing example")
	}
}

func TestTemplatesSortedByFrequencyThenSkeleton(t *testing.T) {
	pl, _ := buildLog(
		e("u", "SELECT b FROM t"),
		e("u", "SELECT a FROM t"),
	)
	ts := Templates(pl)
	if len(ts) != 2 || ts[0].Skeleton > ts[1].Skeleton {
		t.Errorf("tie-break order: %+v", ts)
	}
}

func TestDisjointRatio(t *testing.T) {
	pl, _ := buildLog(
		e("u", "SELECT a FROM t WHERE id = 1"),
		e("u", "SELECT a FROM t WHERE id = 1"),
		e("u", "SELECT a FROM t WHERE id = 2"),
		e("u", "SELECT a FROM t WHERE id = 3"),
	)
	ts := Templates(pl)
	if got := ts[0].DisjointRatio(); got != 0.75 {
		t.Errorf("ratio: %v", got)
	}
	var zero TemplateStats
	if zero.DisjointRatio() != 0 {
		t.Error("zero frequency ratio must be 0")
	}
}

func TestSequencesMining(t *testing.T) {
	pl, sess := buildLog(
		// Session of u: A A B | then A B again later (same session, gaps
		// are 1 s so no split).
		e("u", "SELECT a FROM t WHERE id = 1"),
		e("u", "SELECT a FROM t WHERE id = 2"),
		e("u", "SELECT b FROM u2 WHERE k = 1"),
		e("u", "SELECT a FROM t WHERE id = 3"),
		e("u", "SELECT b FROM u2 WHERE k = 9"),
	)
	seqs := Sequences(pl, sess, 2)
	if len(seqs) == 0 {
		t.Fatal("no sequences found")
	}
	top := seqs[0]
	// Collapsed stream is A B A B → windows AB, BA, AB → AB twice.
	if top.Frequency != 2 || len(top.Signature) != 2 {
		t.Fatalf("top: %+v", top)
	}
	// The first AB window covers 3 queries (A collapsed 2 + B 1), the
	// second 2 queries.
	if top.Queries != 5 {
		t.Errorf("queries covered: %d", top.Queries)
	}
	if top.UserPopularity != 1 {
		t.Errorf("popularity: %d", top.UserPopularity)
	}
}

func TestSequencesBrokenByNonSelect(t *testing.T) {
	pl, sess := buildLog(
		e("u", "SELECT a FROM t WHERE id = 1"),
		e("u", "INSERT INTO x VALUES (1)"),
		e("u", "SELECT b FROM u2 WHERE k = 1"),
	)
	seqs := Sequences(pl, sess, 3)
	if len(seqs) != 0 {
		t.Errorf("sequences across a non-select: %+v", seqs)
	}
}

func TestSequencesMaxLenFloor(t *testing.T) {
	pl, sess := buildLog(
		e("u", "SELECT a FROM t WHERE id = 1"),
		e("u", "SELECT b FROM u2 WHERE k = 1"),
	)
	// maxLen below 2 is clamped to 2.
	seqs := Sequences(pl, sess, 0)
	if len(seqs) != 1 {
		t.Errorf("got %+v", seqs)
	}
}

func TestIsSWS(t *testing.T) {
	base := TemplateStats{Frequency: 100, UserPopularity: 1, DistinctWhere: 100}
	opt := SWSOptions{FrequencyPct: 1, MaxUserPopularity: 2, MinDisjointRatio: 0.5}
	if !IsSWS(base, 1000, opt) {
		t.Error("archetypal SWS not classified")
	}
	lowFreq := base
	lowFreq.Frequency = 5
	lowFreq.DistinctWhere = 5
	if IsSWS(lowFreq, 1000, opt) {
		t.Error("infrequent template classified")
	}
	popular := base
	popular.UserPopularity = 10
	if IsSWS(popular, 1000, opt) {
		t.Error("popular template classified")
	}
	repeats := base
	repeats.DistinctWhere = 10 // mostly repeated filters
	if IsSWS(repeats, 1000, opt) {
		t.Error("non-disjoint template classified")
	}
	if IsSWS(base, 0, opt) {
		t.Error("empty log cannot classify")
	}
	one := TemplateStats{Frequency: 1, UserPopularity: 1, DistinctWhere: 1}
	if IsSWS(one, 1, SWSOptions{FrequencyPct: 1, MaxUserPopularity: 1}) {
		t.Error("single occurrence is not a sliding window")
	}
}

func TestSWSCoverageAndSweep(t *testing.T) {
	templates := []TemplateStats{
		{Fingerprint: 1, Frequency: 500, UserPopularity: 1, DistinctWhere: 500},
		{Fingerprint: 2, Frequency: 300, UserPopularity: 5, DistinctWhere: 300},
		{Fingerprint: 3, Frequency: 200, UserPopularity: 50, DistinctWhere: 10},
	}
	total := 1000
	opt := SWSOptions{FrequencyPct: 1, MaxUserPopularity: 2, MinDisjointRatio: 0.5}
	if got := SWSCoverage(templates, total, opt); got != 0.5 {
		t.Errorf("coverage: %v", got)
	}
	set := ClassifySWS(templates, total, opt)
	if !set[1] || set[2] || set[3] {
		t.Errorf("classification: %v", set)
	}

	grid := SWSSweep(templates, total, []float64{10, 1}, []int{1, 8}, 0.5)
	// Coverage must be monotone: lower frequency threshold and higher
	// popularity threshold can only include more.
	if grid[0][0] > grid[0][1] || grid[0][1] > grid[1][1] {
		t.Errorf("sweep not monotone: %v", grid)
	}
	if grid[1][1] != 0.8 { // templates 1 and 2 qualify at pop<=8, freq>=1%
		t.Errorf("corner: %v", grid[1][1])
	}
}

func TestSWSCoverageEmptyLog(t *testing.T) {
	if SWSCoverage(nil, 0, DefaultSWSOptions()) != 0 {
		t.Error("empty coverage must be 0")
	}
}

func TestSequencesUserPopularity(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var l logmodel.Log
	add := func(i int, user, stmt string) {
		l = append(l, logmodel.Entry{Seq: int64(len(l)), Time: base.Add(time.Duration(i) * time.Second), User: user, Statement: stmt})
	}
	// Two users each run the A→B sequence.
	add(0, "u1", "SELECT a FROM t WHERE id = 1")
	add(1, "u1", "SELECT b FROM u2 WHERE k = 1")
	add(2, "u2", "SELECT a FROM t WHERE id = 9")
	add(3, "u2", "SELECT b FROM u2 WHERE k = 9")
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	seqs := Sequences(pl, sess, 2)
	if len(seqs) != 1 || seqs[0].Frequency != 2 || seqs[0].UserPopularity != 2 {
		t.Fatalf("seqs: %+v", seqs)
	}
}

// TestWCHashIsHashWhere pins the SWS evidence contract on parse results:
// Info.WCHash equals HashWhere of the rendered concrete WHERE clause
// (identifiers normalized, literals kept) for every SELECT of a generated
// log, so WHERE hashes stored in existing snapshots stay valid.
func TestWCHashIsHashWhere(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	pl, _ := parsedlog.Parse(l)
	n := 0
	for _, pe := range pl {
		if pe.Info == nil {
			continue
		}
		sel, err := sqlparser.ParseSelect(pe.Statement)
		if err != nil {
			t.Fatal(err)
		}
		wc := ""
		if sel.Where != nil {
			wc = sqlast.PrintExpr(sel.Where, sqlast.PrintOptions{NormalizeIdents: true})
		}
		if got, want := pe.Info.WCHash, HashWhere(wc); got != want {
			t.Fatalf("%q: WCHash %x, HashWhere(%q) = %x", pe.Statement, got, wc, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("generated log has no SELECTs")
	}
}
