package parsedlog

import (
	"runtime"
	"testing"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/workload"
)

// retainedPerStatement parses l with a fresh parser and returns the heap the
// parser retains per distinct statement text. The log's own strings are
// allocated before the first reading, so only the cache is counted.
func retainedPerStatement(l logmodel.Log) (float64, int) {
	distinct := map[string]struct{}{}
	for _, e := range l {
		distinct[e.Statement] = struct{}{}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := NewParser()
	for _, e := range l {
		p.ParseEntry(e)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(p)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(distinct)), len(distinct)
}

// TestParseCacheRetainedBudget pins what one cached statement costs: a
// summary, a share of its skeleton record, and a share of the fixed slot
// array (512 KB over the scale-1 log's 7,421 distinct texts, 71 B each).
// The budget sits just above the 253 B measured when it was set; a cache
// that holds each statement's syntax tree and clause texts needs about
// 1.7 KB.
func TestParseCacheRetainedBudget(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig())
	perStmt, n := retainedPerStatement(l)
	t.Logf("%d distinct statements, %.0f B retained per statement", n, perStmt)
	if perStmt > 270 {
		t.Fatalf("parse cache retains %.0f B per distinct statement, budget 270 B", perStmt)
	}
}

// TestTreeRendersRecordSkeleton checks that for every SELECT of a generated
// log the re-parsed tree renders to its record's skeleton text, and that
// statements with one skeleton text share one record.
func TestTreeRendersRecordSkeleton(t *testing.T) {
	l, _ := workload.Generate(workload.DefaultConfig().Scale(0.5))
	p := NewParser()
	pl, st := p.Parse(l)
	if st.Selects == 0 {
		t.Fatal("generated log has no SELECTs")
	}
	checked := map[string]bool{}
	for _, pe := range pl {
		if pe.Class != sqlast.ClassSelect || checked[pe.Statement] {
			continue
		}
		checked[pe.Statement] = true
		tree, err := Tree(pe.Info)
		if err != nil {
			t.Fatalf("re-parse %q: %v", pe.Statement, err)
		}
		if got := sqlast.Canonical(tree); got != pe.Info.SkeletonText() {
			t.Fatalf("re-parsed %q renders\n%s\nrecord holds\n%s", pe.Statement, got, pe.Info.SkeletonText())
		}
	}
	records := map[string]any{}
	for _, pe := range pl {
		if pe.Info == nil {
			continue
		}
		if r, ok := records[pe.Info.SkeletonText()]; ok && r != any(pe.Info.Skeleton) {
			t.Fatalf("skeleton %q has two records", pe.Info.SkeletonText())
		}
		records[pe.Info.SkeletonText()] = pe.Info.Skeleton
	}
	t.Logf("%d distinct SELECTs, %d skeleton records", len(checked), len(records))
}
