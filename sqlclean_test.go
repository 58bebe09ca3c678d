package sqlclean_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sqlclean"
)

func table1Log() sqlclean.Log {
	base := time.Date(2026, 1, 2, 10, 0, 0, 0, time.UTC)
	mk := func(off time.Duration, stmt string) sqlclean.Entry {
		return sqlclean.Entry{Time: base.Add(off), User: "192.0.2.1", Statement: stmt}
	}
	return sqlclean.Log{
		mk(0, "SELECT E.Id FROM Employees E WHERE E.department = 'sales'"),
		mk(time.Second, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12"),
		mk(2*time.Second, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15"),
		mk(3*time.Second, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16"),
	}
}

func TestCleanPublicAPI(t *testing.T) {
	res, err := sqlclean.Clean(table1Log(), sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clean) != 2 {
		t.Fatalf("clean: %+v", res.Clean)
	}
	kinds := map[sqlclean.Kind]bool{}
	for _, in := range res.Instances {
		kinds[in.Kind] = true
	}
	if !kinds[sqlclean.KindCTH] || !kinds[sqlclean.KindDWStifle] {
		t.Errorf("kinds: %v", kinds)
	}
}

func TestAnalyzeDoesNotRewrite(t *testing.T) {
	res, err := sqlclean.Analyze(table1Log(), sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clean) != 4 {
		t.Errorf("analyze must not rewrite: %d entries", len(res.Clean))
	}
	if len(res.Instances) == 0 {
		t.Error("analyze must still detect")
	}
}

func TestTSVRoundTripThroughPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := sqlclean.WriteLogTSV(&buf, table1Log()); err != nil {
		t.Fatal(err)
	}
	back, err := sqlclean.ReadLogTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back[1].Statement != table1Log()[1].Statement {
		t.Errorf("round trip: %+v", back)
	}
}

func TestWorkloadThroughPublicAPI(t *testing.T) {
	cfg := sqlclean.DefaultWorkloadConfig().Scale(0.1)
	log, truth := sqlclean.GenerateWorkload(cfg)
	if len(log) == 0 || len(truth.Labels) != len(log) {
		t.Fatalf("log %d, labels %d", len(log), len(truth.Labels))
	}
	res, err := sqlclean.Clean(log, sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clean) >= len(log) {
		t.Error("cleaning must shrink a bot-heavy log")
	}
}

func TestCatalogConstruction(t *testing.T) {
	cat := sqlclean.NewCatalog()
	cat.AddTable("t", sqlclean.Column{Name: "id", Type: "int", Key: true})
	if !cat.IsKey("t", "id") {
		t.Error("custom catalog key lost")
	}
	sky := sqlclean.SkyServerCatalog()
	if !sky.IsKey("photoprimary", "objid") {
		t.Error("SkyServer catalog incomplete")
	}
}

func TestOverlapDistancePublicAPI(t *testing.T) {
	res, err := sqlclean.Analyze(table1Log(), sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var infos []*sqlclean.QueryInfo
	for _, pe := range res.Parsed {
		if pe.Info != nil {
			infos = append(infos, pe.Info)
		}
	}
	if len(infos) < 3 {
		t.Fatalf("infos: %d", len(infos))
	}
	// Queries 2 and 3 (ids 12 vs 15) access disjoint points: distance 1.
	if d := sqlclean.OverlapDistance(infos[1], infos[2]); d != 1 {
		t.Errorf("distance: %v", d)
	}
	if d := sqlclean.OverlapDistance(infos[1], infos[1]); d != 0 {
		t.Errorf("self distance: %v", d)
	}
}

func TestUnrestrictedDedup(t *testing.T) {
	base := time.Date(2026, 1, 2, 10, 0, 0, 0, time.UTC)
	log := sqlclean.Log{
		{Time: base, User: "u", Statement: "SELECT a FROM t"},
		{Time: base.Add(time.Hour), User: "u", Statement: "SELECT a FROM t"},
	}
	res, err := sqlclean.Clean(log, sqlclean.Config{DuplicateThreshold: sqlclean.UnrestrictedDedup})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PreClean) != 1 {
		t.Errorf("unrestricted dedup kept %d", len(res.PreClean))
	}
}

// customRule demonstrates (and pins down) the public extension surface: a
// Rule implemented outside the internal packages.
type customRule struct{}

func (customRule) Kind() sqlclean.Kind { return sqlclean.Kind("OrderByEverything") }

func (customRule) Detect(pl sqlclean.ParsedLog, sess sqlclean.Session) []sqlclean.Instance {
	var out []sqlclean.Instance
	for _, idx := range sess.Indices {
		e := pl[idx]
		if e.Info == nil || e.Info.HasWhere() {
			continue
		}
		stmt, err := sqlclean.QueryTree(e.Info)
		if err != nil {
			continue
		}
		if len(stmt.OrderBy) > 0 {
			skel := e.Info.SkeletonText()
			out = append(out, sqlclean.Instance{
				Kind: "OrderByEverything", Indices: []int{idx}, User: sess.User,
				Identity: skel, First: skel, Second: skel,
			})
		}
	}
	return out
}

func TestCustomRuleViaPublicAPI(t *testing.T) {
	base := time.Date(2026, 1, 2, 10, 0, 0, 0, time.UTC)
	log := sqlclean.Log{
		{Time: base, User: "u", Statement: "SELECT name FROM Employees ORDER BY name"},
	}
	res, err := sqlclean.Clean(log, sqlclean.Config{ExtraRules: []sqlclean.Rule{customRule{}}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range res.Instances {
		if in.Kind == sqlclean.Kind("OrderByEverything") {
			found = true
		}
	}
	if !found {
		t.Error("custom rule did not fire")
	}
	if !strings.Contains(res.Report.String(), "OrderByEverything") {
		t.Error("custom kind missing from the report")
	}
}

func TestStreamFacade(t *testing.T) {
	log, _ := sqlclean.GenerateWorkload(sqlclean.DefaultWorkloadConfig().Scale(0.1))
	log.SortStable()
	out, st, err := sqlclean.CleanStreamSharded(log, sqlclean.ShardedStreamConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || st.In != len(log) {
		t.Fatalf("stream: %d out, %+v", len(out), st)
	}
	p := sqlclean.NewShardedStream(sqlclean.ShardedStreamConfig{Shards: 1})
	if _, err := p.Add(log[0]); err != nil {
		t.Fatal(err)
	}
	p.Close()
}

func TestScanLogTSVFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := sqlclean.WriteLogTSV(&buf, table1Log()); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sqlclean.ScanLogTSV(&buf, func(e sqlclean.Entry) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("scanned %d", n)
	}
}

func TestRetailFacade(t *testing.T) {
	cfg := sqlclean.DefaultRetailConfig()
	cfg.SalesPerRegister = 5
	log, truth := sqlclean.GenerateRetailWorkload(cfg)
	if len(log) == 0 || len(truth.Labels) != len(log) {
		t.Fatal("retail generation broken")
	}
	res, err := sqlclean.Analyze(log, sqlclean.Config{Catalog: sqlclean.RetailCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequences) == 0 {
		t.Error("no sequence patterns on the retail log")
	}
}

func TestExtraRulesFacade(t *testing.T) {
	cat := sqlclean.SkyServerCatalog()
	base := time.Date(2026, 1, 2, 10, 0, 0, 0, time.UTC)
	log := sqlclean.Log{
		{Time: base, User: "u", Statement: "SELECT * FROM specobj WHERE specobjid = 1"},
		{Time: base.Add(time.Minute), User: "u", Statement: "SELECT name FROM dbobjects WHERE name LIKE '%gal%'"},
	}
	res, err := sqlclean.Clean(log, sqlclean.Config{
		Catalog:      cat,
		ExtraRules:   sqlclean.ExtraAntipatternRules(cat),
		ExtraSolvers: sqlclean.ExtraAntipatternSolvers(cat),
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[sqlclean.Kind]bool{}
	for _, in := range res.Instances {
		kinds[in.Kind] = true
	}
	if !kinds[sqlclean.KindImplicitColumns] || !kinds[sqlclean.KindLeadingWildcard] {
		t.Errorf("kinds: %v", kinds)
	}
	// The star was expanded.
	if !strings.Contains(res.Clean[0].Statement, "specobjid, bestobjid") {
		t.Errorf("clean: %q", res.Clean[0].Statement)
	}
}

func TestResultJSONFacade(t *testing.T) {
	res, err := sqlclean.Clean(table1Log(), sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sqlclean.WriteResultJSON(&buf, res, 0); err != nil {
		t.Fatal(err)
	}
	doc, err := sqlclean.ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Report.SizeOriginal != 4 || len(doc.Instances) == 0 {
		t.Errorf("doc: %+v", doc.Report)
	}
}

func TestTrafficFacade(t *testing.T) {
	log, _ := sqlclean.GenerateWorkload(sqlclean.DefaultWorkloadConfig().Scale(0.1))
	log.SortStable()
	rep := sqlclean.ComputeTraffic(log, sqlclean.TrafficOptions{})
	if rep.Entries != len(log) || rep.Users == 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestRecommenderFacade(t *testing.T) {
	res, err := sqlclean.Analyze(table1Log(), sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := sqlclean.TrainRecommender(res)
	if m.Observations() == 0 {
		t.Fatal("no bigrams")
	}
	recs := m.Recommend(res.Parsed[0].Info.Fingerprint, 3)
	if len(recs) == 0 {
		t.Error("no recommendations")
	}
}

func TestSWSModeFacadeConstants(t *testing.T) {
	log, _ := sqlclean.GenerateWorkload(sqlclean.DefaultWorkloadConfig().Scale(0.2))
	keep, err := sqlclean.Clean(log, sqlclean.Config{SWSMode: sqlclean.SWSKeep})
	if err != nil {
		t.Fatal(err)
	}
	excl, err := sqlclean.Clean(log, sqlclean.Config{SWSMode: sqlclean.SWSExclude})
	if err != nil {
		t.Fatal(err)
	}
	if len(excl.Clean) >= len(keep.Clean) {
		t.Error("SWSExclude did not shrink the clean log")
	}
}

func TestReadSkyServerCSVFacade(t *testing.T) {
	csv := "theTime,clientIP,statement\n2003-06-01 00:00:00,10.0.0.1,SELECT 1\n"
	log, err := sqlclean.ReadSkyServerCSV(strings.NewReader(csv))
	if err != nil || len(log) != 1 {
		t.Fatalf("csv: %v %v", log, err)
	}
}
