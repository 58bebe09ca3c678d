package rewrite

import (
	"testing"
	"time"

	"sqlclean/internal/antipattern"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/schema"
	"sqlclean/internal/session"
	"sqlclean/internal/workload"
)

// TestApplyAllocsPerEntry pins what Apply allocates, solvers included,
// called as the streaming engine calls it: once per session of the scale-1
// generator log's SELECTs, with the session's detected instances. Most of
// it is the solvers' re-parses. The bound sits just above what Apply
// allocated when it was set: 20,319 allocations for 7,836 entries in 602
// sessions, 2.593 per entry.
func TestApplyAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEntry = 2.60
	log, _ := workload.Generate(workload.DefaultConfig())
	log.SortStable()
	all, _ := parsedlog.Parse(log)
	pl := all.Selects()
	cat := schema.SkyServer()
	reg := antipattern.DefaultRegistry(cat, antipattern.Options{MinRun: 2, RequireKeyColumn: true})
	type unit struct {
		pl        parsedlog.Log
		instances []antipattern.Instance
	}
	var units []unit
	solved := 0
	for _, s := range session.Build(pl.Raw(), session.Options{MaxGap: 5 * time.Minute, SplitOnLabel: true}) {
		sub := pl.Subset(s.Indices)
		idxs := make([]int, len(sub))
		for i := range idxs {
			idxs[i] = i
		}
		instances := reg.Detect(sub, []session.Session{{User: s.User, Indices: idxs}})
		for _, in := range instances {
			if in.Solvable {
				solved++
			}
		}
		units = append(units, unit{sub, instances})
	}
	if solved == 0 {
		t.Fatal("no solvable instance: the pin measures nothing")
	}
	solvers := DefaultSolvers(cat)
	allocs := testing.AllocsPerRun(3, func() {
		for _, u := range units {
			Apply(u.pl, u.instances, solvers)
		}
	})
	if perEntry := allocs / float64(len(pl)); perEntry > maxPerEntry {
		t.Fatalf("Apply allocates %.4f times per entry, bound %.2f", perEntry, maxPerEntry)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
