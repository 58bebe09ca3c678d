package antipattern

import (
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
)

func demoCatalog() *schema.Catalog {
	c := schema.New()
	c.AddTable("employee",
		schema.Column{Name: "empid", Type: "int", Key: true},
		schema.Column{Name: "name", Type: "string"},
		schema.Column{Name: "address", Type: "string"},
		schema.Column{Name: "department", Type: "string"},
	)
	c.AddTable("employeeinfo",
		schema.Column{Name: "empid", Type: "int", Key: true},
		schema.Column{Name: "address", Type: "string"},
	)
	return c
}

func buildLog(t *testing.T, user string, stmts ...string) (parsedlog.Log, []session.Session) {
	t.Helper()
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var l logmodel.Log
	for i, s := range stmts {
		l = append(l, logmodel.Entry{
			Seq: int64(i), Time: base.Add(time.Duration(i) * time.Second),
			User: user, Statement: s,
		})
	}
	pl, _ := parsedlog.Parse(l)
	return pl, session.Build(l, session.Options{})
}

func detect(t *testing.T, stmts ...string) []Instance {
	t.Helper()
	pl, sess := buildLog(t, "u", stmts...)
	reg := DefaultRegistry(demoCatalog(), Options{MinRun: 2, RequireKeyColumn: true})
	return reg.Detect(pl, sess)
}

func kindsOf(instances []Instance) map[Kind]int {
	out := map[Kind]int{}
	for _, in := range instances {
		out[in.Kind]++
	}
	return out
}

func TestDWStifleDetection(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 3",
	)
	k := kindsOf(instances)
	if k[DWStifle] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
	var dw Instance
	for _, in := range instances {
		if in.Kind == DWStifle {
			dw = in
		}
	}
	if dw.Len() != 3 || !dw.Solvable {
		t.Errorf("dw: %+v", dw)
	}
	if dw.First != dw.Second {
		t.Errorf("DW identity skeletons must match: %q vs %q", dw.First, dw.Second)
	}
}

func TestDSStifleDetection(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT address, department FROM Employee WHERE empId = 8",
	)
	k := kindsOf(instances)
	if k[DSStifle] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
}

func TestDFStifleDetection(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT address FROM EmployeeInfo WHERE empId = 8",
	)
	k := kindsOf(instances)
	if k[DFStifle] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
}

func TestStifleRequiresEqualValuesForDS(t *testing.T) {
	// Different select lists AND different values: neither DW (SC differs)
	// nor DS (WC differs).
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT address FROM Employee WHERE empId = 9",
	)
	k := kindsOf(instances)
	if k[DWStifle]+k[DSStifle]+k[DFStifle] != 0 {
		t.Fatalf("unexpected stifle: %+v", instances)
	}
}

func TestStifleRequiresKeyColumn(t *testing.T) {
	// department is not a key: Definition 11's third axiom rejects it.
	instances := detect(t,
		"SELECT name FROM Employee WHERE department = 'a'",
		"SELECT name FROM Employee WHERE department = 'b'",
	)
	if kindsOf(instances)[DWStifle] != 0 {
		t.Fatalf("non-key filter detected as Stifle: %+v", instances)
	}

	// With the ablation switch the same run is detected.
	pl, sess := buildLog(t, "u",
		"SELECT name FROM Employee WHERE department = 'a'",
		"SELECT name FROM Employee WHERE department = 'b'",
	)
	reg := DefaultRegistry(demoCatalog(), Options{MinRun: 2, RequireKeyColumn: false})
	if kindsOf(reg.Detect(pl, sess))[DWStifle] != 1 {
		t.Error("key-check ablation did not detect the run")
	}
}

func TestStifleRequiresSingleEqualityPredicate(t *testing.T) {
	// CP = 2 disqualifies.
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 8 AND department = 'x'",
		"SELECT name FROM Employee WHERE empId = 9 AND department = 'x'",
	)
	if kindsOf(instances)[DWStifle] != 0 {
		t.Fatalf("CP=2 run detected: %+v", instances)
	}
	// Non-equality disqualifies.
	instances = detect(t,
		"SELECT name FROM Employee WHERE empId > 8",
		"SELECT name FROM Employee WHERE empId > 9",
	)
	if kindsOf(instances)[DWStifle] != 0 {
		t.Fatalf("range run detected: %+v", instances)
	}
}

func TestStifleMinRun(t *testing.T) {
	pl, sess := buildLog(t, "u",
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 2",
	)
	reg := DefaultRegistry(demoCatalog(), Options{MinRun: 4, RequireKeyColumn: true})
	if n := kindsOf(reg.Detect(pl, sess))[DWStifle]; n != 0 {
		t.Errorf("run of 3 detected with MinRun=4: %d", n)
	}
}

func TestStifleRunsAreMaximalAndNonOverlapping(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 2",
		"SELECT name FROM Employee WHERE empId = 3",
		"SELECT name FROM Employee WHERE empId = 4",
	)
	dwCount := 0
	for _, in := range instances {
		if in.Kind == DWStifle {
			dwCount++
			if in.Len() != 4 {
				t.Errorf("run not maximal: %+v", in)
			}
		}
	}
	if dwCount != 1 {
		t.Errorf("want exactly one maximal run, got %d", dwCount)
	}
}

func TestStifleBrokenByInterleavedQuery(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 2",
		"SELECT count(*) FROM Employee",
		"SELECT name FROM Employee WHERE empId = 3",
	)
	for _, in := range instances {
		if in.Kind == DWStifle && in.Len() != 2 {
			t.Errorf("run crossed a non-qualifying query: %+v", in)
		}
	}
}

func TestStifleUsersDoNotMix(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u1", Statement: "SELECT name FROM Employee WHERE empId = 1"},
		{Seq: 1, Time: base.Add(time.Second), User: "u2", Statement: "SELECT name FROM Employee WHERE empId = 2"},
	}
	pl, _ := parsedlog.Parse(l)
	sess := session.Build(l, session.Options{})
	reg := DefaultRegistry(demoCatalog(), Options{MinRun: 2, RequireKeyColumn: true})
	if n := len(reg.Detect(pl, sess)); n != 0 {
		t.Errorf("cross-user stifle: %d instances", n)
	}
}

func TestCTHDetection(t *testing.T) {
	instances := detect(t,
		"SELECT empId FROM Employee WHERE department = 'sales'",
		"SELECT name FROM Employee WHERE empId = 12",
		"SELECT name FROM Employee WHERE empId = 15",
	)
	k := kindsOf(instances)
	if k[CTH] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
	var cth Instance
	for _, in := range instances {
		if in.Kind == CTH {
			cth = in
		}
	}
	if cth.Len() != 3 || cth.Solvable {
		t.Errorf("cth: %+v", cth)
	}
}

func TestCTHRequiresDifferentFirstSkeleton(t *testing.T) {
	// SQ1 = SQ2: a DW-Stifle shape, not a CTH.
	instances := detect(t,
		"SELECT empId FROM Employee WHERE empId = 1",
		"SELECT empId FROM Employee WHERE empId = 2",
	)
	if kindsOf(instances)[CTH] != 0 {
		t.Fatalf("same-skeleton pair detected as CTH: %+v", instances)
	}
}

func TestCTHRequiresFollowerColumnInHeadSelect(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE department = 'sales'",
		"SELECT address FROM Employee WHERE empId = 12",
	)
	if kindsOf(instances)[CTH] != 0 {
		t.Fatalf("follower filters a column the head never returned: %+v", instances)
	}
}

func TestCTHStarHeadMatchesAnyFollower(t *testing.T) {
	instances := detect(t,
		"SELECT * FROM Employee WHERE department = 'sales'",
		"SELECT name FROM Employee WHERE empId = 12",
	)
	if kindsOf(instances)[CTH] != 1 {
		t.Fatalf("star head not honored: %+v", instances)
	}
}

func TestSNCDetection(t *testing.T) {
	instances := detect(t, "SELECT name FROM Employee WHERE address = NULL")
	k := kindsOf(instances)
	if k[SNC] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
	instances = detect(t, "SELECT name FROM Employee WHERE address IS NULL")
	if kindsOf(instances)[SNC] != 0 {
		t.Fatalf("IS NULL flagged: %+v", instances)
	}
}

func TestDetectOrdersByLogPosition(t *testing.T) {
	instances := detect(t,
		"SELECT name FROM Employee WHERE empId = 1",
		"SELECT name FROM Employee WHERE empId = 2",
		"SELECT count(*) FROM Employee",
		"SELECT empId FROM Employee WHERE department = 'x'",
		"SELECT name FROM Employee WHERE empId = 3",
		"SELECT name FROM Employee WHERE empId = 4",
	)
	for i := 1; i < len(instances); i++ {
		if instances[i-1].Indices[0] > instances[i].Indices[0] {
			t.Fatalf("instances not in log order: %+v", instances)
		}
	}
}

func TestRegistryExtension(t *testing.T) {
	pl, sess := buildLog(t, "u", "SELECT a FROM t WHERE b = NULL")
	reg := NewRegistry()
	if n := len(reg.Detect(pl, sess)); n != 0 {
		t.Fatalf("empty registry: %d instances", n)
	}
	reg.Register(&SNCRule{})
	if got := reg.Detect(pl, sess); len(got) != 1 || got[0].Kind != SNC {
		t.Errorf("custom registry: %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	instances := []Instance{
		{Kind: DWStifle, Identity: "A", Indices: []int{0, 1}},
		{Kind: DWStifle, Identity: "A", Indices: []int{5, 6, 7}},
		{Kind: DWStifle, Identity: "B", Indices: []int{9, 10}},
		{Kind: CTH, Identity: "C", Indices: []int{12, 13}},
		{Kind: Kind("Custom"), Identity: "D", Indices: []int{20}},
	}
	sum := Summarize(instances)
	if len(sum) != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum[0].Kind != DWStifle || sum[0].Distinct != 2 || sum[0].Instances != 3 || sum[0].Queries != 7 {
		t.Errorf("dw summary: %+v", sum[0])
	}
	if sum[1].Kind != CTH {
		t.Errorf("order: %+v", sum)
	}
	if sum[2].Kind != Kind("Custom") {
		t.Errorf("custom kinds last: %+v", sum)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MinRun != 2 {
		t.Errorf("MinRun default: %d", o.MinRun)
	}
}

func TestDBObjectsBrowsingFormsDSStifle(t *testing.T) {
	// The paper's biggest DS cluster (§6.9): text and description of the
	// same DBObjects row fetched by separate statements.
	pl, sess := buildLog(t, "u",
		"SELECT text FROM DBObjects WHERE name='photoobjall'",
		"SELECT description FROM DBObjects WHERE name='photoobjall'",
	)
	reg := DefaultRegistry(schema.SkyServer(), Options{MinRun: 2, RequireKeyColumn: true})
	instances := reg.Detect(pl, sess)
	if kindsOf(instances)[DSStifle] != 1 {
		t.Fatalf("instances: %+v", instances)
	}
}

func TestStifleRelationPriority(t *testing.T) {
	// When SC, FC and WC are all equal the pair is a duplicate, not a
	// Stifle; relation must return "".
	pl, sess := buildLog(t, "u",
		"SELECT name FROM Employee WHERE empId = 8",
		"SELECT name FROM Employee WHERE empId = 8",
	)
	reg := DefaultRegistry(demoCatalog(), Options{MinRun: 2, RequireKeyColumn: true})
	for _, in := range reg.Detect(pl, sess) {
		if in.Kind == DWStifle || in.Kind == DSStifle || in.Kind == DFStifle {
			t.Fatalf("identical statements formed a Stifle: %+v", in)
		}
	}
}
