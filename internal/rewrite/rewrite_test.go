package rewrite

import (
	"strings"
	"testing"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlparser"
)

func demoCatalog() *schema.Catalog {
	c := schema.New()
	c.AddTable("employee",
		schema.Column{Name: "empid", Type: "int", Key: true},
		schema.Column{Name: "name", Type: "string"},
		schema.Column{Name: "surname", Type: "string"},
		schema.Column{Name: "address", Type: "string"},
	)
	c.AddTable("employeeinfo",
		schema.Column{Name: "empid", Type: "int", Key: true},
		schema.Column{Name: "address", Type: "string"},
		schema.Column{Name: "phone", Type: "string"},
	)
	return c
}

func parseLog(t *testing.T, stmts ...string) (parsedlog.Log, []antipattern.Instance) {
	t.Helper()
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var l logmodel.Log
	for i, s := range stmts {
		l = append(l, logmodel.Entry{Seq: int64(i), Time: base.Add(time.Duration(i) * time.Second), User: "u", Rows: 1, Statement: s})
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	reg := antipattern.DefaultRegistry(demoCatalog(), antipattern.DefaultOptions())
	return pl, reg.Detect(pl, sess)
}

func solveOne(t *testing.T, kind antipattern.Kind, stmts ...string) string {
	t.Helper()
	pl, instances := parseLog(t, stmts...)
	for _, inst := range instances {
		if inst.Kind != kind {
			continue
		}
		for _, s := range DefaultSolvers(demoCatalog()) {
			if s.Kind() == kind {
				out, err := s.Solve(pl, inst)
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				return out
			}
		}
	}
	t.Fatalf("no %s instance detected in %v", kind, stmts)
	return ""
}

func TestDWSolveExample10(t *testing.T) {
	// Paper Example 9 → Example 10.
	got := solveOne(t, antipattern.DWStifle,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
	)
	want := "SELECT empId, name FROM Employee WHERE empId IN (8, 1)"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestDWSolveDeduplicatesValues(t *testing.T) {
	got := solveOne(t, antipattern.DWStifle,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 8",
	)
	if strings.Count(got, "8") != 1 {
		t.Errorf("duplicate values in IN list: %q", got)
	}
}

func TestDWSolveKeepsExistingFilterColumn(t *testing.T) {
	got := solveOne(t, antipattern.DWStifle,
		"SELECT empId, name FROM Employee WHERE empId = 8",
		"SELECT empId, name FROM Employee WHERE empId = 9",
	)
	if strings.Count(strings.ToLower(got), "empid,") != 1 {
		t.Errorf("filter column duplicated: %q", got)
	}
}

func TestDWSolveStringValues(t *testing.T) {
	// String-keyed tables (like SkyServer's DBObjects) merge into an IN
	// list of quoted strings.
	cat := schema.New()
	cat.AddTable("dbobjects",
		schema.Column{Name: "name", Type: "string", Key: true},
		schema.Column{Name: "description", Type: "string"},
	)
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT description FROM DBObjects WHERE name = 'Galaxy'"},
		{Seq: 1, Time: base.Add(time.Second), User: "u", Statement: "SELECT description FROM DBObjects WHERE name = 'Star'"},
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	reg := antipattern.DefaultRegistry(cat, antipattern.DefaultOptions())
	instances := reg.Detect(pl, sess)
	res := Apply(pl, instances, DefaultSolvers(cat))
	if len(res.Clean) != 1 {
		t.Fatalf("clean: %v", res.Clean)
	}
	if !strings.Contains(res.Clean[0].Statement, "IN ('Galaxy', 'Star')") {
		t.Errorf("got %q", res.Clean[0].Statement)
	}
}

func TestDSSolveExample12(t *testing.T) {
	// Paper Example 11 → Example 12.
	got := solveOne(t, antipattern.DSStifle,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT address, surname FROM Employee WHERE empId = 8",
	)
	want := "SELECT name, address, surname FROM Employee WHERE empId = 8"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestDSSolveDeduplicatesColumns(t *testing.T) {
	got := solveOne(t, antipattern.DSStifle,
		"SELECT name, surname FROM Employee WHERE empId = 8",
		"SELECT surname, address FROM Employee WHERE empId = 8",
	)
	if strings.Count(strings.ToLower(got), "surname") != 1 {
		t.Errorf("duplicate column: %q", got)
	}
}

func TestDFSolveExample14(t *testing.T) {
	// Paper Example 13 → Example 14.
	got := solveOne(t, antipattern.DFStifle,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT address FROM EmployeeInfo WHERE empId = 8",
	)
	want := "SELECT Employee.name, EmployeeInfo.address FROM Employee INNER JOIN EmployeeInfo ON Employee.empid = EmployeeInfo.empid WHERE Employee.empId = 8"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestDFSolveWithAliases(t *testing.T) {
	// Definition 14 requires equal concrete WHERE clauses, so the filters
	// stay unqualified; the tables carry aliases and the solver must join
	// through them.
	got := solveOne(t, antipattern.DFStifle,
		"SELECT name FROM Employee E WHERE empId = 8",
		"SELECT address FROM EmployeeInfo EI WHERE empId = 8",
	)
	if !strings.Contains(got, "INNER JOIN") || !strings.Contains(got, "E.empid = EI.empid") {
		t.Errorf("got %q", got)
	}
	if !strings.Contains(got, "E.name") || !strings.Contains(got, "EI.address") {
		t.Errorf("select items not qualified: %q", got)
	}
}

func TestSNCSolve(t *testing.T) {
	got := solveOne(t, antipattern.SNC,
		"SELECT name FROM Employee WHERE address = NULL",
	)
	if got != "SELECT name FROM Employee WHERE address IS NULL" {
		t.Errorf("got %q", got)
	}
	got = solveOne(t, antipattern.SNC,
		"SELECT name FROM Employee WHERE address <> NULL",
	)
	if got != "SELECT name FROM Employee WHERE address IS NOT NULL" {
		t.Errorf("got %q", got)
	}
}

func TestSNCSolveNestedConjunct(t *testing.T) {
	got := solveOne(t, antipattern.SNC,
		"SELECT name FROM Employee WHERE empId = 3 AND address = NULL",
	)
	if !strings.Contains(got, "address IS NULL") || !strings.Contains(got, "empId = 3") {
		t.Errorf("got %q", got)
	}
}

func TestSolvedStatementsReparse(t *testing.T) {
	outs := []string{
		solveOne(t, antipattern.DWStifle,
			"SELECT name FROM Employee WHERE empId = 8",
			"SELECT name FROM Employee WHERE empId = 1"),
		solveOne(t, antipattern.DSStifle,
			"SELECT name FROM Employee WHERE empId = 8",
			"SELECT address FROM Employee WHERE empId = 8"),
		solveOne(t, antipattern.DFStifle,
			"SELECT name FROM Employee WHERE empId = 8",
			"SELECT phone FROM EmployeeInfo WHERE empId = 8"),
		solveOne(t, antipattern.SNC,
			"SELECT name FROM Employee WHERE address = NULL"),
	}
	for _, out := range outs {
		if _, err := sqlparser.ParseSelect(out); err != nil {
			t.Errorf("solved statement does not reparse: %q: %v", out, err)
		}
	}
}

func TestApplyEndToEnd(t *testing.T) {
	pl, instances := parseLog(t,
		// count(*) has no output columns, so it heads no CTH and joins no
		// Stifle — it stays as a plain entry.
		"SELECT count(*) FROM Employee",
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT surname FROM Employee WHERE empId = 9",
		"SELECT address FROM Employee WHERE empId = 9",
	)
	res := Apply(pl, instances, DefaultSolvers(demoCatalog()))
	if len(res.Clean) != 3 {
		t.Fatalf("clean: %v", res.Clean)
	}
	// First entry untouched, then the DW merge, then the DS merge.
	if !strings.Contains(res.Clean[1].Statement, "IN (8, 1)") {
		t.Errorf("dw merge: %q", res.Clean[1].Statement)
	}
	if !strings.Contains(res.Clean[2].Statement, "surname, address") {
		t.Errorf("ds merge: %q", res.Clean[2].Statement)
	}
	// Rows are summed across merged members.
	if res.Clean[1].Rows != 2 {
		t.Errorf("rows: %d", res.Clean[1].Rows)
	}
	// Removal drops every antipattern member.
	if len(res.Removal) != 1 {
		t.Errorf("removal: %v", res.Removal)
	}
	// Stats add up.
	total := 0
	for _, s := range res.Stats {
		total += s.Solved
		if s.QueriesAfter != s.Solved {
			t.Errorf("stats: %+v", s)
		}
	}
	if total != 2 {
		t.Errorf("solved: %d", total)
	}
	if len(res.Replacements) != 2 {
		t.Fatalf("replacements: %+v", res.Replacements)
	}
	if res.Replacements[0].CleanIndex != 1 || res.Replacements[0].Replaced != 2 {
		t.Errorf("replacement: %+v", res.Replacements[0])
	}
}

func TestApplyLeavesUnsolvableInPlace(t *testing.T) {
	pl, instances := parseLog(t,
		"SELECT empId FROM Employee WHERE address = 'sales'",
		"SELECT name FROM Employee WHERE empId = 12",
	)
	// This is a CTH candidate (head + one follower) but CTH has no solver.
	res := Apply(pl, instances, DefaultSolvers(demoCatalog()))
	if len(res.Clean) != 2 {
		t.Fatalf("clean: %v", res.Clean)
	}
	hasCTH := false
	for _, in := range instances {
		if in.Kind == antipattern.CTH {
			hasCTH = true
		}
	}
	if !hasCTH {
		t.Fatal("expected a CTH candidate")
	}
	// Removal drops the CTH members.
	if len(res.Removal) != 0 {
		t.Errorf("removal keeps CTH members: %v", res.Removal)
	}
}

func TestApplyRowsUnknownPropagates(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Rows: -1, Statement: "SELECT name FROM Employee WHERE empId = 8"},
		{Seq: 1, Time: base.Add(time.Second), User: "u", Rows: 5, Statement: "SELECT name FROM Employee WHERE empId = 9"},
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	reg := antipattern.DefaultRegistry(demoCatalog(), antipattern.DefaultOptions())
	res := Apply(pl, reg.Detect(pl, sess), DefaultSolvers(demoCatalog()))
	if len(res.Clean) != 1 || res.Clean[0].Rows != -1 {
		t.Errorf("rows: %+v", res.Clean)
	}
}

func TestDFSolveFailsWithoutSharedKey(t *testing.T) {
	cat := schema.New()
	cat.AddTable("a", schema.Column{Name: "id", Type: "int", Key: true}, schema.Column{Name: "x", Type: "int"})
	cat.AddTable("b", schema.Column{Name: "bid", Type: "int", Key: true}, schema.Column{Name: "id", Type: "int", Key: true}, schema.Column{Name: "y", Type: "int"})
	// b's keys: bid (not in a) and id (in a) — shared key exists. Remove it:
	cat.AddTable("c", schema.Column{Name: "cid", Type: "int", Key: true}, schema.Column{Name: "z", Type: "int"})

	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT x FROM a WHERE id = 1"},
		{Seq: 1, Time: base.Add(time.Second), User: "u", Statement: "SELECT z FROM c WHERE id = 1"},
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	reg := antipattern.DefaultRegistry(cat, antipattern.DefaultOptions())
	instances := reg.Detect(pl, sess)
	res := Apply(pl, instances, DefaultSolvers(cat))
	// The DF instance cannot be solved (no shared key): both queries stay.
	foundDF := false
	for _, s := range res.Stats {
		if s.Kind == antipattern.DFStifle {
			foundDF = true
			if s.Failed != 1 || s.Solved != 0 {
				t.Errorf("df stats: %+v", s)
			}
		}
	}
	if foundDF && len(res.Clean) != 2 {
		t.Errorf("clean: %v", res.Clean)
	}
}

func TestApplySkipsOverlappingInstances(t *testing.T) {
	// Craft two artificial overlapping solvable instances; the second must
	// be skipped.
	pl, _ := parseLog(t,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
	)
	inst1 := antipattern.Instance{Kind: antipattern.DWStifle, Indices: []int{0, 1}, Solvable: true}
	inst2 := antipattern.Instance{Kind: antipattern.DWStifle, Indices: []int{1}, Solvable: true}
	res := Apply(pl, []antipattern.Instance{inst1, inst2}, DefaultSolvers(demoCatalog()))
	if len(res.Clean) != 1 {
		t.Fatalf("clean: %v", res.Clean)
	}
	if len(res.Replacements) != 1 {
		t.Errorf("replacements: %+v", res.Replacements)
	}
}

func TestImplicitColumnsSolver(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT * FROM Employee WHERE empId = 8"},
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	cat := demoCatalog()
	reg := antipattern.NewRegistry(antipattern.ExtraRules(cat)...)
	instances := reg.Detect(pl, sess)
	res := Apply(pl, instances, ExtraSolvers(cat))
	if len(res.Clean) != 1 {
		t.Fatalf("clean: %+v", res.Clean)
	}
	want := "SELECT empid, name, surname, address FROM Employee WHERE empId = 8"
	if res.Clean[0].Statement != want {
		t.Errorf("got %q, want %q", res.Clean[0].Statement, want)
	}
	if _, err := sqlparser.ParseSelect(res.Clean[0].Statement); err != nil {
		t.Errorf("expanded statement does not reparse: %v", err)
	}
}

func parseInfos(t *testing.T, stmts ...string) []*skeleton.Info {
	t.Helper()
	p := parsedlog.NewParser()
	var infos []*skeleton.Info
	for _, s := range stmts {
		pe := p.ParseEntry(logmodel.Entry{Statement: s})
		if pe.Info == nil {
			t.Fatalf("parse %q: %v", s, pe.Err)
		}
		infos = append(infos, pe.Info)
	}
	return infos
}

func TestUnionTemplateRanges(t *testing.T) {
	infos := parseInfos(t,
		"SELECT count(*) FROM photoprimary WHERE htmid >= 0 and htmid <= 99",
		"SELECT count(*) FROM photoprimary WHERE htmid >= 100 and htmid <= 199",
		"SELECT count(*) FROM photoprimary WHERE htmid >= 200 and htmid <= 299",
	)
	got, err := UnionTemplate(infos)
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT count(*) FROM photoprimary WHERE htmid >= 0 AND htmid <= 299"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestUnionTemplateBetween(t *testing.T) {
	infos := parseInfos(t,
		"SELECT objid FROM photoprimary WHERE htmid BETWEEN 50 AND 99",
		"SELECT objid FROM photoprimary WHERE htmid BETWEEN 0 AND 49",
	)
	got, err := UnionTemplate(infos)
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT objid FROM photoprimary WHERE htmid BETWEEN 0 AND 99"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestUnionTemplateRejectsNonRanges(t *testing.T) {
	infos := parseInfos(t,
		"SELECT objid FROM photoprimary WHERE objid = 1",
		"SELECT objid FROM photoprimary WHERE objid = 2",
	)
	if _, err := UnionTemplate(infos); err == nil {
		t.Fatal("equality sweeps have no contiguous union")
	}
	if _, err := UnionTemplate(nil); err == nil {
		t.Fatal("empty input must fail")
	}
	mixed := parseInfos(t,
		"SELECT objid FROM photoprimary WHERE htmid >= 0 and htmid <= 9",
		"SELECT objid FROM photoprimary WHERE htmid >= 10",
	)
	if _, err := UnionTemplate(mixed); err == nil {
		t.Fatal("different templates must fail")
	}
}
