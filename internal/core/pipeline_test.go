package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/workload"

	"sqlclean/internal/logmodel"
)

func mkLog(stmts ...string) logmodel.Log {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var l logmodel.Log
	for i, s := range stmts {
		l = append(l, logmodel.Entry{Seq: int64(i), Time: base.Add(time.Duration(i) * time.Second), User: "10.0.0.1", Rows: 1, Statement: s})
	}
	return l
}

func TestRunPaperTable1Example(t *testing.T) {
	// The running example of the paper (Table 1 → Tables 2 and 3).
	l := mkLog(
		"SELECT E.Id FROM Employees E WHERE E.department = 'sales'",
		"SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
		"SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
		"SELECT E.name, E.surname FROM Employees E WHERE E.id = 16",
	)
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[antipattern.Kind]int{}
	for _, in := range res.Instances {
		kinds[in.Kind]++
	}
	if kinds[antipattern.CTH] != 1 || kinds[antipattern.DWStifle] != 1 {
		t.Fatalf("instances: %+v", res.Instances)
	}
	if len(res.Clean) != 2 {
		t.Fatalf("clean: %+v", res.Clean)
	}
	if !strings.Contains(res.Clean[1].Statement, "IN (12, 15, 16)") {
		t.Errorf("clean statement: %q", res.Clean[1].Statement)
	}
	// Removal drops all four (all are CTH members).
	if len(res.Removal) != 0 {
		t.Errorf("removal: %+v", res.Removal)
	}
}

func TestRunFiltersNonSelectAndErrors(t *testing.T) {
	l := mkLog(
		"SELECT a FROM t",
		"INSERT INTO t VALUES (1)",
		"SELECT FROM t",
		"CREATE TABLE u (a int)",
	)
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CountSelect != 1 || res.Report.CountDML != 1 || res.Report.CountDDL != 1 || res.Report.CountErrors != 1 {
		t.Errorf("report: %+v", res.Report)
	}
	if len(res.PreClean) != 1 {
		t.Errorf("preclean: %+v", res.PreClean)
	}
}

func TestRunDeduplicates(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT a FROM t"},
		{Seq: 1, Time: base.Add(300 * time.Millisecond), User: "u", Statement: "SELECT a FROM t"},
		{Seq: 2, Time: base.Add(10 * time.Second), User: "u", Statement: "SELECT a FROM t"},
	}
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedup.Removed != 1 || len(res.PreClean) != 2 {
		t.Errorf("dedup: %+v preclean=%d", res.Dedup, len(res.PreClean))
	}
	res, err = Run(l, Config{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PreClean) != 3 {
		t.Errorf("NoDedup: %d", len(res.PreClean))
	}
}

func TestRunSortsUnorderedInput(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 1, Time: base.Add(time.Second), User: "u", Statement: "SELECT E.name FROM Employees E WHERE E.id = 12"},
		{Seq: 0, Time: base, User: "u", Statement: "SELECT E.name FROM Employees E WHERE E.id = 11"},
	}
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// After sorting they are consecutive and form a DW-Stifle.
	found := false
	for _, in := range res.Instances {
		if in.Kind == antipattern.DWStifle {
			found = true
		}
	}
	if !found {
		t.Error("unordered input broke run detection")
	}
	// The caller's slice must not be reordered.
	if l[0].Seq != 1 {
		t.Error("input mutated")
	}
}

func TestRunDisableSolve(t *testing.T) {
	l := mkLog(
		"SELECT E.name FROM Employees E WHERE E.id = 12",
		"SELECT E.name FROM Employees E WHERE E.id = 15",
	)
	res, err := Run(l, Config{DisableSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) == 0 {
		t.Fatal("detection must still run")
	}
	if len(res.Clean) != len(res.PreClean) {
		t.Error("clean log must equal pre-clean log")
	}
	if len(res.Report.SolveStats) != 0 {
		t.Error("no solve stats expected")
	}
}

func TestRunSessionGapBreaksRuns(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	l := logmodel.Log{
		{Seq: 0, Time: base, User: "u", Statement: "SELECT name FROM Employees WHERE id = 1"},
		{Seq: 1, Time: base.Add(2 * time.Hour), User: "u", Statement: "SELECT name FROM Employees WHERE id = 2"},
	}
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Errorf("2h apart must not form an instance: %+v", res.Instances)
	}
	// A negative SessionGap disables splitting entirely.
	res, err = Run(l, Config{SessionGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) == 0 {
		t.Error("gap splitting not disabled")
	}
}

func TestReportConsistency(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	res, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.SizeOriginal != len(res.Original) {
		t.Errorf("SizeOriginal %d != %d", r.SizeOriginal, len(res.Original))
	}
	if r.SizeAfterDedup != len(res.PreClean) {
		t.Errorf("SizeAfterDedup %d != %d", r.SizeAfterDedup, len(res.PreClean))
	}
	if r.FinalSize != len(res.Clean) {
		t.Errorf("FinalSize %d != %d", r.FinalSize, len(res.Clean))
	}
	if r.CountSelect+r.CountDML+r.CountDDL+r.CountExec+r.CountErrors != r.SizeOriginal {
		t.Error("class counts do not add up")
	}
	if r.CountTemplates != len(res.Templates) {
		t.Error("template count mismatch")
	}
	if len(res.Templates) > 0 && r.MaxTemplateFreq != res.Templates[0].Frequency {
		t.Error("max frequency mismatch")
	}
	// The clean log is never bigger than the pre-clean log.
	if len(res.Clean) > len(res.PreClean) {
		t.Error("cleaning grew the log")
	}
	// The removal log is never bigger than the clean log.
	if len(res.Removal) > len(res.Clean) {
		t.Error("removal bigger than clean")
	}
	// Template frequencies sum to the pre-clean size.
	sum := 0
	for _, tp := range res.Templates {
		sum += tp.Frequency
	}
	if sum != len(res.PreClean) {
		t.Errorf("frequencies sum to %d, log has %d", sum, len(res.PreClean))
	}
}

func TestCleanLogReparses(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	res, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Clean {
		if _, err := sqlparser.ParseSelect(e.Statement); err != nil {
			t.Fatalf("clean statement does not parse: %q: %v", e.Statement, err)
		}
	}
}

func TestSecondCleaningPassIsNearFixpoint(t *testing.T) {
	// §5.5: after one cleaning pass, the residue of solvable antipatterns
	// is negligible (the paper measured 0.09 %).
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	res1, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(res1.Clean, Config{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	solvable := 0
	for _, in := range res2.Instances {
		if in.Solvable {
			solvable += len(in.Indices)
		}
	}
	share := float64(solvable) / float64(len(res1.Clean))
	if share > 0.01 {
		t.Errorf("second-pass solvable share too high: %.4f", share)
	}
}

func TestAntipatternTemplatesMarking(t *testing.T) {
	l := mkLog(
		"SELECT name FROM Employees WHERE id = 1",
		"SELECT name FROM Employees WHERE id = 2",
		"SELECT count(*) FROM photoprimary",
	)
	res, err := Run(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	anti := res.AntipatternTemplates()
	marked := 0
	for _, tp := range res.Templates {
		if anti[tp.Fingerprint] {
			marked++
		}
	}
	if marked != 1 {
		t.Errorf("marked templates: %d", marked)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Catalog == nil || c.DuplicateThreshold != time.Second ||
		c.SessionGap != 5*time.Minute || c.MinRun != 2 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestRunRejectsInvalidCatalog(t *testing.T) {
	cat := schemaWithBrokenTable()
	if _, err := Run(mkLog("SELECT 1"), Config{Catalog: cat}); err == nil {
		t.Error("invalid catalog accepted")
	}
}

func TestReportString(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	res, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	for _, want := range []string{"Size of original query log", "Count of Select queries", "Final log size"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestNoUserInfoStillFindsPatterns(t *testing.T) {
	// §6.8: with timestamps only, frequencies stay close.
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	resFull, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resAnon, err := Run(log.StripUsers(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resAnon.Templates) == 0 {
		t.Fatal("no templates without user info")
	}
	// Top template frequency must be identical: templates do not depend on
	// users at all.
	if resFull.Templates[0].Frequency != resAnon.Templates[0].Frequency {
		t.Errorf("top frequency changed: %d vs %d",
			resFull.Templates[0].Frequency, resAnon.Templates[0].Frequency)
	}
	// Clean-log sizes differ by only a few percent.
	diff := float64(len(resFull.Clean)-len(resAnon.Clean)) / float64(len(resFull.Clean))
	if diff < -0.1 || diff > 0.1 {
		t.Errorf("clean size gap: %.3f", diff)
	}
}

func TestSolveToFixpoint(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	res, err := Run(log, Config{SolveToFixpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.SolvePasses < 1 {
		t.Fatalf("passes: %d", res.Report.SolvePasses)
	}
	// After the fixpoint, a fresh run over the clean log finds no solvable
	// Stifle at all.
	res2, err := Run(res.Clean, Config{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res2.Instances {
		if in.Solvable && in.Kind != antipattern.SNC {
			t.Fatalf("solvable %s survived the fixpoint: %v", in.Kind, in.Identity)
		}
	}
	// Fixpoint output is never bigger than single-pass output.
	res1, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clean) > len(res1.Clean) {
		t.Errorf("fixpoint %d > single pass %d", len(res.Clean), len(res1.Clean))
	}
}

// TestRemovalDropsEveryInstanceMember pins the removal log (§6.9): the
// pre-clean log, in order, without any member of any detected instance,
// solvable or not. Extra solve passes rewrite only the clean log.
func TestRemovalDropsEveryInstanceMember(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	for _, fixpoint := range []bool{false, true} {
		res, err := Run(log, Config{SolveToFixpoint: fixpoint})
		if err != nil {
			t.Fatal(err)
		}
		member := make([]bool, len(res.Parsed))
		kinds := map[antipattern.Kind]bool{}
		for _, in := range res.Instances {
			kinds[in.Kind] = true
			for _, idx := range in.Indices {
				member[idx] = true
			}
		}
		if !kinds[antipattern.CTH] || !kinds[antipattern.DWStifle] {
			t.Fatalf("fixpoint %v: want CTH and DW-Stifle instances, got kinds %v", fixpoint, kinds)
		}
		var want logmodel.Log
		for i, pe := range res.Parsed {
			if !member[i] {
				want = append(want, pe.Entry)
			}
		}
		if !reflect.DeepEqual(res.Removal, want) {
			t.Fatalf("fixpoint %v: removal has %d entries, want the %d non-members", fixpoint, len(res.Removal), len(want))
		}
		if len(want) != len(res.Parsed)-res.Report.QueriesInAntipattern {
			t.Fatalf("fixpoint %v: %d non-members, report counts %d of %d in antipatterns",
				fixpoint, len(want), res.Report.QueriesInAntipattern, len(res.Parsed))
		}
	}
}

func TestSWSModeExclude(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	keep, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	excl, err := Run(log, Config{SWSMode: SWSExclude})
	if err != nil {
		t.Fatal(err)
	}
	if len(excl.Clean) >= len(keep.Clean) {
		t.Fatalf("exclude did not shrink: %d vs %d", len(excl.Clean), len(keep.Clean))
	}
	// No SWS template statement remains.
	parsed, _ := parsedlog.Parse(excl.Clean)
	for _, pe := range parsed {
		if pe.Info != nil && excl.SWS[pe.Info.Fingerprint] {
			t.Fatalf("SWS query survived exclusion: %q", pe.Statement)
		}
	}
}

func TestSWSModeUnion(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	keep, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Run(log, Config{SWSMode: SWSUnion})
	if err != nil {
		t.Fatal(err)
	}
	if len(uni.Clean) >= len(keep.Clean) {
		t.Fatalf("union did not shrink: %d vs %d", len(uni.Clean), len(keep.Clean))
	}
	// The htmid sliding windows collapse to one hull query each.
	hulls := 0
	for _, e := range uni.Clean {
		if strings.Contains(e.Statement, "htmid") && strings.Contains(e.Statement, ">=") {
			hulls++
			if _, err := sqlparser.ParseSelect(e.Statement); err != nil {
				t.Fatalf("hull query does not parse: %q: %v", e.Statement, err)
			}
		}
	}
	if hulls == 0 || hulls > 4 {
		t.Errorf("hull queries: %d", hulls)
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	res, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res, 10); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Report.SizeOriginal != res.Report.SizeOriginal ||
		doc.Report.FinalSize != res.Report.FinalSize {
		t.Errorf("report: %+v", doc.Report)
	}
	if len(doc.Templates) != len(res.Templates) {
		t.Errorf("templates: %d vs %d", len(doc.Templates), len(res.Templates))
	}
	if len(doc.Instances) != 10 {
		t.Errorf("instance cap: %d", len(doc.Instances))
	}
	for _, in := range doc.Instances {
		if len(in.Statements) == 0 || in.Kind == "" {
			t.Errorf("instance: %+v", in)
		}
	}
	// Antipattern/SWS flags round-trip.
	swsSeen := false
	for _, tp := range doc.Templates {
		if tp.SWS {
			swsSeen = true
		}
	}
	if !swsSeen {
		t.Error("no SWS template flagged in the export")
	}
	// Unbounded export includes every instance.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, res, 0); err != nil {
		t.Fatal(err)
	}
	doc2, err := ReadJSON(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc2.Instances) != len(res.Instances) {
		t.Errorf("instances: %d vs %d", len(doc2.Instances), len(res.Instances))
	}
}
