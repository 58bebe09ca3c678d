package skeleton

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlclean/internal/sqlast"
	"sqlclean/internal/sqlparser"
)

// analyzed is an Info plus the concrete clause texts (Definition 3) that
// Info keeps only as hashes.
type analyzed struct {
	*Info
	SC, FC, WC string
}

func analyze(t *testing.T, q string) analyzed {
	t.Helper()
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var sc, fc strings.Builder
	appendSelectList(&sc, sel, false)
	appendFromList(&fc, sel, false)
	a := analyzed{Info: Analyze(sel), SC: sc.String(), FC: fc.String()}
	if sel.Where != nil {
		a.WC = sqlast.PrintExpr(sel.Where, concreteOpts)
	}
	if a.SCHash != HashClause(a.SC) || a.FCHash != HashClause(a.FC) || a.WCHash != HashClause(a.WC) {
		t.Fatalf("%q: clause hashes do not match the concrete clause texts", q)
	}
	return a
}

func TestClauseSkeletons(t *testing.T) {
	in := analyze(t, "SELECT Name, Surname FROM Employee WHERE id = 12")
	if in.SSC != "name, surname" {
		t.Errorf("SSC: %q", in.SSC)
	}
	if in.SFC != "employee" {
		t.Errorf("SFC: %q", in.SFC)
	}
	if in.SWC != "id = <num>" {
		t.Errorf("SWC: %q", in.SWC)
	}
	if in.WC != "id = 12" {
		t.Errorf("WC: %q", in.WC)
	}
	if in.SC != "name, surname" || in.FC != "employee" {
		t.Errorf("SC/FC: %q / %q", in.SC, in.FC)
	}
}

func TestFingerprintEqualityAcrossValuesAndCase(t *testing.T) {
	// Definition 6: similar iff skeletons equal. Values and identifier case
	// must not matter.
	a := analyze(t, "SELECT a, b FROM T WHERE a = 0 AND b >= 3")
	b := analyze(t, "select A, B from t where A = 10 and B >= 5")
	if a.Fingerprint != b.Fingerprint {
		t.Error("fingerprints differ for similar queries")
	}
	if !TemplateEqual(a.Info, b.Info) {
		t.Error("TemplateEqual must hold")
	}
	c := analyze(t, "SELECT a, b FROM T WHERE a = 0 AND b > 3") // >= vs >
	if a.Fingerprint == c.Fingerprint {
		t.Error("different operators must yield different fingerprints")
	}
	d := analyze(t, "SELECT a FROM T WHERE a = 0 AND b >= 3") // different SSC
	if a.Fingerprint == d.Fingerprint {
		t.Error("different select lists must yield different fingerprints")
	}
}

func TestFingerprintOfMatchesAnalyze(t *testing.T) {
	in := analyze(t, "SELECT a FROM t WHERE a = 1")
	if FingerprintOf(in.SFC, in.SWC, in.SSC) != in.Fingerprint {
		t.Error("FingerprintOf disagrees with Analyze")
	}
}

func TestPredicateExtraction(t *testing.T) {
	cases := []struct {
		q     string
		cp    int
		first Predicate
	}{
		{"SELECT a FROM t WHERE id = 8", 1,
			Predicate{Column: "id", Op: "="}},
		{"SELECT a FROM t WHERE t.id = 8", 1,
			Predicate{Qualifier: "t", Column: "id", Op: "="}},
		{"SELECT a FROM t WHERE 8 = id", 1,
			Predicate{Column: "id", Op: "="}},
		{"SELECT a FROM t WHERE 8 < id", 1,
			Predicate{Column: "id", Op: ">"}},
		{"SELECT a FROM t WHERE id IN (1, 2, 3)", 1,
			Predicate{Column: "id", Op: "IN"}},
		{"SELECT a FROM t WHERE r BETWEEN 1 AND 2", 1,
			Predicate{Column: "r", Op: "BETWEEN"}},
		{"SELECT a FROM t WHERE x IS NULL", 1,
			Predicate{Column: "x", Op: "IS NULL"}},
		{"SELECT a FROM t WHERE x IS NOT NULL", 1,
			Predicate{Column: "x", Op: "IS NOT NULL"}},
		{"SELECT a FROM t WHERE s LIKE 'x%'", 1,
			Predicate{Column: "s", Op: "LIKE"}},
		{"SELECT a FROM t WHERE a = 1 AND b = 2", 2,
			Predicate{Column: "a", Op: "="}},
		{"SELECT a FROM t WHERE (a = 1) AND ((b = 2))", 2,
			Predicate{Column: "a", Op: "="}},
		{"SELECT a FROM t WHERE a = 1 OR b = 2", 1,
			Predicate{Op: "complex"}},
		{"SELECT a FROM t WHERE abs(a) = 1", 1,
			Predicate{Op: "complex"}},
		{"SELECT a FROM t, u WHERE t.id = u.id", 1,
			Predicate{Qualifier: "t", Column: "id", Op: "=", OtherColumn: "u.id"}},
	}
	for _, c := range cases {
		in := analyze(t, c.q)
		if in.CP() != c.cp {
			t.Errorf("%q: CP=%d, want %d", c.q, in.CP(), c.cp)
			continue
		}
		p := in.Predicates[0]
		if p.Column != c.first.Column || p.Op != c.first.Op ||
			p.Qualifier != c.first.Qualifier || p.OtherColumn != c.first.OtherColumn {
			t.Errorf("%q: got %+v, want %+v", c.q, p, c.first)
		}
	}
}

func TestPredicateLiteralCollection(t *testing.T) {
	in := analyze(t, "SELECT a FROM t WHERE id IN (8, 1, 9)")
	p := in.Predicates[0]
	if len(p.Literals) != 3 || p.Literals[0].Val != "8" || p.Literals[2].Val != "9" {
		t.Errorf("literals: %+v", p.Literals)
	}
	in = analyze(t, "SELECT a FROM t WHERE r BETWEEN 1 AND 2")
	p = in.Predicates[0]
	if len(p.Literals) != 2 || p.Literals[0].Val != "1" || p.Literals[1].Val != "2" {
		t.Errorf("between literals: %+v", p.Literals)
	}
}

func TestNullComparePredicates(t *testing.T) {
	in := analyze(t, "SELECT a FROM t WHERE x = NULL")
	if !in.Predicates[0].NullCompare {
		t.Error("x = NULL must set NullCompare")
	}
	in = analyze(t, "SELECT a FROM t WHERE x <> NULL")
	if !in.Predicates[0].NullCompare {
		t.Error("x <> NULL must set NullCompare")
	}
	in = analyze(t, "SELECT a FROM t WHERE x = 1")
	if in.Predicates[0].NullCompare {
		t.Error("x = 1 must not set NullCompare")
	}
}

func TestPredicateHelpers(t *testing.T) {
	eq := Predicate{Column: "id", Op: "="}
	if !eq.IsEquality() || !eq.IsValueFilter() {
		t.Error("equality value filter misclassified")
	}
	join := Predicate{Column: "id", Op: "=", OtherColumn: "u.id"}
	if join.IsValueFilter() {
		t.Error("join predicate is not a value filter")
	}
	complexP := Predicate{Op: "complex"}
	if complexP.IsValueFilter() || complexP.IsEquality() {
		t.Error("complex predicate misclassified")
	}
}

func TestVariablePredicateActsAsValueFilter(t *testing.T) {
	in := analyze(t, "SELECT a FROM t WHERE id = @v")
	p := in.Predicates[0]
	if !p.IsEquality() || !p.IsValueFilter() {
		t.Errorf("variable filter: %+v", p)
	}
	if len(p.Literals) != 0 {
		t.Errorf("variables carry no literal values: %+v", p.Literals)
	}
}

func TestSelectColumns(t *testing.T) {
	in := analyze(t, "SELECT E.objID, ra, count(dec) FROM t E")
	want := []string{"objid", "ra", "dec"}
	if len(in.SelectCols) != len(want) {
		t.Fatalf("cols: %v", in.SelectCols)
	}
	for i := range want {
		if in.SelectCols[i] != want[i] {
			t.Errorf("col %d: %q want %q", i, in.SelectCols[i], want[i])
		}
	}
	in = analyze(t, "SELECT * FROM t")
	if len(in.SelectCols) != 1 || in.SelectCols[0] != "*" {
		t.Errorf("star: %v", in.SelectCols)
	}
}

func TestSelectColumnsSkipSubqueries(t *testing.T) {
	in := analyze(t, "SELECT a, (SELECT max(hidden) FROM u) FROM t")
	for _, c := range in.SelectCols {
		if c == "hidden" {
			t.Error("subquery columns leaked into SelectCols")
		}
	}
}

func TestTableNames(t *testing.T) {
	in := analyze(t, "SELECT a FROM T1 JOIN t2 ON T1.x = t2.x, (SELECT b FROM T3) s WHERE a IN (SELECT c FROM t1)")
	want := map[string]bool{"t1": true, "t2": true, "t3": true}
	if len(in.TableNames) != 3 {
		t.Fatalf("tables: %v", in.TableNames)
	}
	for _, n := range in.TableNames {
		if !want[n] {
			t.Errorf("unexpected table %q", n)
		}
	}
}

func TestSkeletonTextIsCanonical(t *testing.T) {
	in := analyze(t, "SELECT Name FROM Emp WHERE id = 7")
	if in.SkeletonText() != "SELECT name FROM emp WHERE id = <num>" {
		t.Errorf("got %q", in.SkeletonText())
	}
}

func TestExtractPredicatesNilWhere(t *testing.T) {
	if ps := ExtractPredicates(nil); ps != nil {
		t.Errorf("nil where must yield nil, got %v", ps)
	}
	in := analyze(t, "SELECT a FROM t")
	if in.CP() != 0 {
		t.Errorf("CP without WHERE: %d", in.CP())
	}
}

func TestNotInIsComplex(t *testing.T) {
	in := analyze(t, "SELECT a FROM t WHERE id NOT IN (1, 2)")
	if in.Predicates[0].Op != "complex" {
		t.Errorf("NOT IN must be complex: %+v", in.Predicates[0])
	}
}

// TestSkeletonsShareRecords pins the record table: statements that differ
// only in literal values and identifier case share one Skeleton, a
// different clause gets its own, and Analyze shares nothing.
func TestSkeletonsShareRecords(t *testing.T) {
	var tab Skeletons
	summarize := func(q string) *Info {
		t.Helper()
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		in := &Info{Statement: q}
		tab.Summarize(in, sel)
		return in
	}
	a := summarize("SELECT ra FROM PhotoObj WHERE objid = 1")
	b := summarize("select RA from photoobj where objID = 2")
	c := summarize("SELECT ra FROM photoobj WHERE objid = 1 ORDER BY ra")
	if a.Skeleton != b.Skeleton {
		t.Error("same skeleton, two records")
	}
	if a.Skeleton == c.Skeleton || len(tab.m) != 2 {
		t.Errorf("ORDER BY must give its own record (%d records)", len(tab.m))
	}
	if a.Statement != "SELECT ra FROM PhotoObj WHERE objid = 1" || a.WCHash == b.WCHash || a.SCHash != b.SCHash {
		t.Errorf("per-statement fields: %+v / %+v", a, b)
	}
	sel, _ := sqlparser.ParseSelect("SELECT ra FROM photoobj WHERE objid = 1")
	if Analyze(sel).Skeleton == a.Skeleton {
		t.Error("Analyze must not share the table's records")
	}
}

// TestSkeletonsConcurrent races Summarize on one table (run with -race):
// every goroutine must get the same record for the same skeleton.
func TestSkeletonsConcurrent(t *testing.T) {
	var tab Skeletons
	const goroutines, perG = 8, 200
	recs := make([][]*Skeleton, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := fmt.Sprintf("SELECT c%d FROM t WHERE id = %d", i%5, g*perG+i)
				sel, err := sqlparser.ParseSelect(q)
				if err != nil {
					t.Error(err)
					return
				}
				in := &Info{}
				tab.Summarize(in, sel)
				recs[g] = append(recs[g], in.Skeleton)
			}
		}(g)
	}
	wg.Wait()
	if len(tab.m) != 5 {
		t.Fatalf("%d records for 5 skeletons", len(tab.m))
	}
	for g := range recs {
		for i, r := range recs[g] {
			if r != recs[0][i%5] {
				t.Fatalf("goroutine %d statement %d: record differs", g, i)
			}
		}
	}
}
