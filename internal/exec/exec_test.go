package exec

import (
	"strings"
	"testing"
	"time"

	"sqlclean/internal/schema"
	"sqlclean/internal/storage"
)

func demoEngine(t *testing.T) *Engine {
	t.Helper()
	cat := schema.New()
	cat.AddTable("emp",
		schema.Column{Name: "id", Type: "int", Key: true},
		schema.Column{Name: "name", Type: "string"},
		schema.Column{Name: "dep", Type: "string"},
		schema.Column{Name: "salary", Type: "int"},
		schema.Column{Name: "bonus", Type: "int"},
	)
	cat.AddTable("dep",
		schema.Column{Name: "dep", Type: "string", Key: true},
		schema.Column{Name: "city", Type: "string"},
	)
	db := storage.NewDB(cat)
	rows := []storage.Row{
		{storage.Int(1), storage.Str("ann"), storage.Str("sales"), storage.Int(100), storage.Int(10)},
		{storage.Int(2), storage.Str("bob"), storage.Str("sales"), storage.Int(80), storage.Null},
		{storage.Int(3), storage.Str("cyd"), storage.Str("eng"), storage.Int(120), storage.Int(20)},
		{storage.Int(4), storage.Str("dan"), storage.Str("eng"), storage.Int(90), storage.Int(5)},
		{storage.Int(5), storage.Str("eve"), storage.Str("hr"), storage.Int(70), storage.Null},
	}
	for _, r := range rows {
		if err := db.Insert("emp", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []storage.Row{
		{storage.Str("sales"), storage.Str("Rome")},
		{storage.Str("eng"), storage.Str("Oslo")},
	} {
		if err := db.Insert("dep", r); err != nil {
			t.Fatal(err)
		}
	}
	return New(db)
}

func query(t *testing.T, e *Engine, q string) *ResultSet {
	t.Helper()
	rs, err := e.Execute(q)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return rs
}

func firstCol(rs *ResultSet) []string {
	var out []string
	for _, r := range rs.Rows {
		out = append(out, r[0].String())
	}
	return out
}

func TestSelectAll(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT * FROM emp")
	if len(rs.Rows) != 5 || len(rs.Cols) != 5 {
		t.Fatalf("rows=%d cols=%v", len(rs.Rows), rs.Cols)
	}
}

func TestFilterEquality(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT name FROM emp WHERE id = 3")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "cyd" {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if e.Stats.IndexLookups != 1 {
		t.Errorf("index not used: %+v", e.Stats)
	}
}

func TestFilterInUsesIndex(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT name FROM emp WHERE id IN (1, 3, 99)")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if e.Stats.IndexLookups != 1 || e.Stats.RowsScanned != 2 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestFullScanWhenNoIndex(t *testing.T) {
	e := demoEngine(t)
	query(t, e, "SELECT name FROM emp WHERE dep = 'eng'")
	if e.Stats.RowsScanned != 5 || e.Stats.IndexLookups != 0 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT name FROM emp WHERE salary >= 90 AND dep <> 'hr' ORDER BY name")
	got := firstCol(rs)
	want := []string{"ann", "cyd", "dan"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v", got)
	}
	rs = query(t, e, "SELECT name FROM emp WHERE salary < 80 OR dep = 'eng' ORDER BY name DESC")
	got = firstCol(rs)
	want = []string{"eve", "dan", "cyd"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v", got)
	}
}

func TestBetweenLikeIsNull(t *testing.T) {
	e := demoEngine(t)
	if rs := query(t, e, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100 ORDER BY name"); len(rs.Rows) != 3 {
		t.Errorf("between: %v", rs.Rows)
	}
	if rs := query(t, e, "SELECT name FROM emp WHERE name LIKE 'a%'"); len(rs.Rows) != 1 {
		t.Errorf("like: %v", rs.Rows)
	}
	if rs := query(t, e, "SELECT name FROM emp WHERE name LIKE '_o_'"); len(rs.Rows) != 1 {
		t.Errorf("like underscore: %v", rs.Rows)
	}
	if rs := query(t, e, "SELECT name FROM emp WHERE bonus IS NULL ORDER BY name"); len(rs.Rows) != 2 {
		t.Errorf("is null: %v", rs.Rows)
	}
	if rs := query(t, e, "SELECT name FROM emp WHERE bonus IS NOT NULL"); len(rs.Rows) != 3 {
		t.Errorf("is not null: %v", rs.Rows)
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	e := demoEngine(t)
	// bonus = NULL never matches (the SNC antipattern's cause).
	if rs := query(t, e, "SELECT name FROM emp WHERE bonus = NULL"); len(rs.Rows) != 0 {
		t.Errorf("= NULL matched: %v", rs.Rows)
	}
	if rs := query(t, e, "SELECT name FROM emp WHERE bonus <> NULL"); len(rs.Rows) != 0 {
		t.Errorf("<> NULL matched: %v", rs.Rows)
	}
}

func TestArithmeticInProjectionAndFilter(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT salary + bonus AS total FROM emp WHERE id = 1")
	if rs.Rows[0][0].I != 110 {
		t.Fatalf("total: %v", rs.Rows[0][0])
	}
	rs = query(t, e, "SELECT name FROM emp WHERE salary * 2 > 200")
	if len(rs.Rows) != 1 {
		t.Fatalf("filter arith: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT 10 % 3, 7 / 2, 2.5 * 2 FROM emp WHERE id = 1")
	if rs.Rows[0][0].I != 1 || rs.Rows[0][1].I != 3 || rs.Rows[0][2].F != 5 {
		t.Fatalf("arith: %v", rs.Rows[0])
	}
}

func TestDivisionByZero(t *testing.T) {
	e := demoEngine(t)
	if _, err := e.Execute("SELECT 1 / 0 FROM emp"); err == nil {
		t.Error("division by zero must error")
	}
}

func TestAggregates(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT count(*), sum(salary), min(salary), max(salary), avg(salary) FROM emp")
	r := rs.Rows[0]
	if r[0].I != 5 || r[1].I != 460 || r[2].I != 70 || r[3].I != 120 || r[4].F != 92 {
		t.Fatalf("aggregates: %v", r)
	}
	// count(col) skips NULLs; count(DISTINCT col) deduplicates.
	rs = query(t, e, "SELECT count(bonus), count(DISTINCT dep) FROM emp")
	if rs.Rows[0][0].I != 3 || rs.Rows[0][1].I != 3 {
		t.Fatalf("count variants: %v", rs.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT dep, count(*) AS c FROM emp GROUP BY dep HAVING count(*) > 1 ORDER BY dep")
	if len(rs.Rows) != 2 {
		t.Fatalf("groups: %v", rs.Rows)
	}
	for _, r := range rs.Rows {
		if r[1].I != 2 {
			t.Errorf("group count: %v", r)
		}
	}
}

func TestDistinct(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT DISTINCT dep FROM emp")
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct: %v", rs.Rows)
	}
}

func TestTopAndPercent(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT TOP 2 name FROM emp ORDER BY salary DESC")
	got := firstCol(rs)
	if len(got) != 2 || got[0] != "cyd" || got[1] != "ann" {
		t.Fatalf("top: %v", got)
	}
	rs = query(t, e, "SELECT TOP 40 PERCENT name FROM emp")
	if len(rs.Rows) != 2 {
		t.Fatalf("top percent: %v", rs.Rows)
	}
}

func TestInnerJoinHashPath(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT e.name, d.city FROM emp e INNER JOIN dep d ON e.dep = d.dep ORDER BY e.name")
	if len(rs.Rows) != 4 { // eve's hr department has no dep row
		t.Fatalf("join rows: %v", rs.Rows)
	}
	if rs.Rows[0][0].S != "ann" || rs.Rows[0][1].S != "Rome" {
		t.Fatalf("first row: %v", rs.Rows[0])
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT e.name, d.city FROM emp e LEFT JOIN dep d ON e.dep = d.dep WHERE d.city IS NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "eve" {
		t.Fatalf("left join: %v", rs.Rows)
	}
}

func TestNestedLoopJoinOnInequality(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT count(*) FROM emp a INNER JOIN emp b ON a.salary > b.salary")
	if rs.Rows[0][0].I != 10 { // 5 distinct salaries → 10 ordered pairs
		t.Fatalf("count: %v", rs.Rows[0][0])
	}
}

func TestCommaFromIsCrossProduct(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT count(*) FROM emp, dep")
	if rs.Rows[0][0].I != 10 {
		t.Fatalf("cross product: %v", rs.Rows[0][0])
	}
}

func TestDerivedTable(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT s.dep FROM (SELECT dep, count(*) AS c FROM emp GROUP BY dep) s WHERE s.c = 1")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "hr" {
		t.Fatalf("derived: %v", rs.Rows)
	}
}

func TestInSubqueryAndExists(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT name FROM emp WHERE dep IN (SELECT dep FROM dep WHERE city = 'Oslo')")
	if len(rs.Rows) != 2 {
		t.Fatalf("in subquery: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT name FROM emp WHERE EXISTS (SELECT 1 FROM dep WHERE city = 'Nowhere')")
	if len(rs.Rows) != 0 {
		t.Fatalf("exists: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT name FROM emp WHERE salary = (SELECT max(salary) FROM emp)")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "cyd" {
		t.Fatalf("scalar subquery: %v", rs.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT CASE WHEN salary > 100 THEN 'high' ELSE 'low' END FROM emp WHERE id = 3")
	if rs.Rows[0][0].S != "high" {
		t.Fatalf("case: %v", rs.Rows[0][0])
	}
	rs = query(t, e, "SELECT CASE dep WHEN 'hr' THEN 1 ELSE 0 END FROM emp WHERE id = 5")
	if rs.Rows[0][0].I != 1 {
		t.Fatalf("operand case: %v", rs.Rows[0][0])
	}
}

func TestUnionVariants(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT dep FROM emp UNION SELECT dep FROM dep")
	if len(rs.Rows) != 3 {
		t.Fatalf("union: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT dep FROM emp UNION ALL SELECT dep FROM dep")
	if len(rs.Rows) != 7 {
		t.Fatalf("union all: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT dep FROM emp EXCEPT SELECT dep FROM dep")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "hr" {
		t.Fatalf("except: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT dep FROM emp INTERSECT SELECT dep FROM dep")
	if len(rs.Rows) != 2 {
		t.Fatalf("intersect: %v", rs.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT upper(name), abs(0 - salary), isnull(bonus, 0) FROM emp WHERE id = 2")
	r := rs.Rows[0]
	if r[0].S != "BOB" || r[1].F != 80 || r[2].I != 0 {
		t.Fatalf("funcs: %v", r)
	}
	// Unknown scalar functions evaluate to NULL instead of failing.
	rs = query(t, e, "SELECT someexotic(name) FROM emp WHERE id = 1")
	if !rs.Rows[0][0].IsNull() {
		t.Fatalf("unknown func: %v", rs.Rows[0][0])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT 1 + 2")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 3 {
		t.Fatalf("constant select: %v", rs.Rows)
	}
}

func TestErrors(t *testing.T) {
	e := demoEngine(t)
	for _, q := range []string{
		"SELECT x FROM emp",          // unknown column
		"SELECT name FROM ghost",     // unknown table
		"SELECT f(1) FROM nowhere",   // unknown table (from)
		"SELECT * FROM fNoSuch(1) n", // unknown TVF
		"INSERT INTO emp VALUES (1)", // not a select
	} {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("%q: want error", q)
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	e := demoEngine(t)
	query(t, e, "SELECT * FROM emp")
	query(t, e, "SELECT * FROM emp")
	if e.Stats.Statements != 2 || e.Stats.RowsScanned != 10 || e.Stats.RowsReturned != 10 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{PerStatement: time.Second, PerRowScan: time.Millisecond, PerRowOut: time.Microsecond}
	s := Stats{Statements: 2, RowsScanned: 10, RowsReturned: 3}
	want := 2*time.Second + 10*time.Millisecond + 3*time.Microsecond
	if got := s.Cost(m); got != want {
		t.Errorf("cost: %v want %v", got, want)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Statements != 4 || sum.RowsScanned != 20 {
		t.Errorf("add: %+v", sum)
	}
	d := DefaultCostModel()
	if d.PerStatement <= 0 {
		t.Error("default model must charge per statement")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "h__o", false}, // length mismatch
		{"hello", "", false},
		{"", "%", true},
		{"abc", "abc", true},
		{"ABC", "abc", true}, // case-insensitive like T-SQL defaults
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestCastEvaluation(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT CAST(salary AS varchar(10)), CAST('42' AS int), CAST(3.9 AS int), CAST(id AS float) FROM emp WHERE id = 1")
	r := rs.Rows[0]
	if r[0].S != "100" || r[1].I != 42 || r[2].I != 3 || r[3].F != 1 {
		t.Fatalf("cast row: %v", r)
	}
	rs = query(t, e, "SELECT CAST(bonus AS int) FROM emp WHERE id = 2")
	if !rs.Rows[0][0].IsNull() {
		t.Fatalf("cast NULL: %v", rs.Rows[0][0])
	}
	if _, err := e.Execute("SELECT CAST(name AS int) FROM emp WHERE id = 1"); err == nil {
		t.Error("cast 'ann' to int must fail")
	}
	if _, err := e.Execute("SELECT CAST(id AS blob) FROM emp"); err == nil {
		t.Error("unsupported cast target must fail")
	}
}

func TestOrderByAggregateOutput(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT dep, count(*) AS c FROM emp GROUP BY dep ORDER BY c DESC, dep")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	// sales(2) and eng(2) tie on count, then dep ascending; hr(1) last.
	if rs.Rows[0][0].S != "eng" || rs.Rows[1][0].S != "sales" || rs.Rows[2][0].S != "hr" {
		t.Fatalf("order: %v", rs.Rows)
	}
	// ORDER BY the aggregate expression itself (no alias).
	rs = query(t, e, "SELECT dep, sum(salary) FROM emp GROUP BY dep ORDER BY sum(salary) DESC")
	if got, _ := rs.Rows[0][1].AsFloat(); got != 210 {
		t.Fatalf("top sum: %v", rs.Rows[0])
	}
	// ORDER BY something that is not an output column must error.
	if _, err := e.Execute("SELECT dep FROM emp GROUP BY dep ORDER BY salary"); err == nil {
		t.Error("want error for non-output ORDER BY")
	}
}

func TestTopWithGroupedOrder(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT TOP 1 dep, count(*) AS c FROM emp GROUP BY dep ORDER BY c DESC, dep")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "eng" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestOrderByPositional(t *testing.T) {
	e := demoEngine(t)
	rs := query(t, e, "SELECT name, salary FROM emp ORDER BY 2 DESC")
	if rs.Rows[0][0].S != "cyd" {
		t.Fatalf("positional order: %v", rs.Rows)
	}
	rs = query(t, e, "SELECT dep, count(*) FROM emp GROUP BY dep ORDER BY 2 DESC, 1")
	if rs.Rows[0][0].S != "eng" || rs.Rows[2][0].S != "hr" {
		t.Fatalf("grouped positional order: %v", rs.Rows)
	}
}
