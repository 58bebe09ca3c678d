package core

import (
	"reflect"
	"testing"

	"sqlclean/internal/obs"
	"sqlclean/internal/workload"
)

// TestRunParallelDeterminism is the acceptance test for the parallel
// pipeline: a run with Workers: 8 must be byte-identical to the serial run
// (Workers: 1) — same report, same clean and removal logs, same instances in
// the same order, same templates — across several configurations that
// exercise the fixpoint and SWS re-parse paths too.
func TestRunParallelDeterminism(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"fixpoint", Config{SolveToFixpoint: true}},
		{"sws-exclude", Config{SWSMode: SWSExclude}},
		{"sws-union", Config{SWSMode: SWSUnion}},
		{"no-dedup", Config{NoDedup: true}},
		{"cluster", Config{ClusterThreshold: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := tc.cfg
			serialCfg.Workers = 1
			parallelCfg := tc.cfg
			parallelCfg.Workers = 8

			serial, err := Run(log, serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(log, parallelCfg)
			if err != nil {
				t.Fatal(err)
			}

			// Wall-clock fields are nondeterministic by nature; everything
			// else in the report must be byte-identical.
			stripTiming := func(r Report) Report {
				r.Duration = 0
				r.Stages = obs.StageTiming{}
				return r
			}
			if !reflect.DeepEqual(stripTiming(serial.Report), stripTiming(par.Report)) {
				t.Errorf("Report differs:\nserial:   %+v\nparallel: %+v", serial.Report, par.Report)
			}
			if !reflect.DeepEqual(serial.Clean, par.Clean) {
				t.Errorf("Clean log differs (serial %d entries, parallel %d)", len(serial.Clean), len(par.Clean))
			}
			if !reflect.DeepEqual(serial.Removal, par.Removal) {
				t.Errorf("Removal log differs")
			}
			if !reflect.DeepEqual(serial.Instances, par.Instances) {
				t.Errorf("Instances differ (serial %d, parallel %d)", len(serial.Instances), len(par.Instances))
			}
			if !reflect.DeepEqual(serial.Templates, par.Templates) {
				t.Errorf("Templates differ")
			}
			if !reflect.DeepEqual(serial.Sequences, par.Sequences) {
				t.Errorf("Sequences differ")
			}
			if !reflect.DeepEqual(serial.SWS, par.SWS) {
				t.Errorf("SWS classification differs")
			}
			if !reflect.DeepEqual(serial.PreClean, par.PreClean) {
				t.Errorf("PreClean differs")
			}
			if !reflect.DeepEqual(serial.Clusters, par.Clusters) {
				t.Errorf("Clusters differ (serial %d, parallel %d)", len(serial.Clusters), len(par.Clusters))
			}
		})
	}
}

// TestRunStagesReproducible pins that the stage tree records no scheduling:
// two runs at Workers: 2 give equal trees once durations and busy time are
// zeroed.
func TestRunStagesReproducible(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.5))
	log.SortStable()
	workers := 0
	var strip func(st *obs.StageTiming)
	strip = func(st *obs.StageTiming) {
		st.DurationNS = 0
		if _, ok := st.Attrs["busy_ns"]; ok {
			st.Attrs["busy_ns"] = 0
			workers++
		}
		for i := range st.Children {
			strip(&st.Children[i])
		}
	}
	stages := func() obs.StageTiming {
		res, err := Run(log, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Report.Stages
		strip(&st)
		return st
	}
	a, b := stages(), stages()
	if workers == 0 {
		t.Fatal("no worker span: the runs fanned out nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stage trees differ:\n%+v\n%+v", a, b)
	}
}

// TestRunSingleParse pins the double-parse fix: the pre-clean log's parse
// results must be the stage-1 results carried through dedup by index, not a
// fresh re-parse, so the run looks each entry up once.
func TestRunSingleParse(t *testing.T) {
	l := mkLog(
		"SELECT E.name FROM Employees E WHERE E.id = 12",
		"SELECT E.name FROM Employees E WHERE E.id = 12",
		"SELECT E.name FROM Employees E WHERE E.id = 15",
	)
	met := obs.NewRegistry()
	res, err := Run(l, Config{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Counter("parse_entries_total").Value(); got != int64(len(l)) {
		t.Fatalf("%d parse lookups for %d entries", got, len(l))
	}
	if len(res.Parsed) != len(res.PreClean) {
		t.Fatalf("parsed/pre-clean length mismatch: %d vs %d", len(res.Parsed), len(res.PreClean))
	}
	for i := range res.Parsed {
		if res.Parsed[i].Statement != res.PreClean[i].Statement {
			t.Fatalf("entry %d: parsed statement %q does not match pre-clean %q",
				i, res.Parsed[i].Statement, res.PreClean[i].Statement)
		}
	}
	// Identical statement texts carry equal summaries across the dedup cut.
	byStmt := map[string]int{}
	for i, pe := range res.Parsed {
		if pe.Info == nil {
			continue
		}
		if j, ok := byStmt[pe.Statement]; ok && !reflect.DeepEqual(res.Parsed[j].Info, pe.Info) {
			t.Fatalf("statement %q has two summaries", pe.Statement)
		}
		byStmt[pe.Statement] = i
	}
}
