package dedup

import (
	"testing"
	"time"

	"sqlclean/internal/logmodel"
)

func mk(user, stmt string, at time.Duration) logmodel.Entry {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	return logmodel.Entry{User: user, Statement: stmt, Time: base.Add(at)}
}

func TestRemovesWithinThreshold(t *testing.T) {
	l := logmodel.Log{
		mk("u", "SELECT 1", 0),
		mk("u", "SELECT 1", 500*time.Millisecond),
		mk("u", "SELECT 1", 5*time.Second),
	}
	out, res := Remove(l, time.Second)
	if len(out) != 2 || res.Removed != 1 {
		t.Fatalf("out=%d removed=%d", len(out), res.Removed)
	}
}

func TestSlidingWindowChain(t *testing.T) {
	// Reloads 0.8 s apart: each compares against the previous occurrence,
	// so the whole chain collapses at a 1 s threshold.
	l := logmodel.Log{
		mk("u", "Q", 0),
		mk("u", "Q", 800*time.Millisecond),
		mk("u", "Q", 1600*time.Millisecond),
		mk("u", "Q", 2400*time.Millisecond),
	}
	out, res := Remove(l, time.Second)
	if len(out) != 1 || res.Removed != 3 {
		t.Fatalf("out=%d removed=%d", len(out), res.Removed)
	}
}

func TestDifferentUsersAreIndependent(t *testing.T) {
	l := logmodel.Log{
		mk("u1", "Q", 0),
		mk("u2", "Q", 100*time.Millisecond),
	}
	out, res := Remove(l, time.Second)
	if len(out) != 2 || res.Removed != 0 {
		t.Fatalf("different users deduped: out=%d", len(out))
	}
}

func TestDifferentStatementsSurvive(t *testing.T) {
	l := logmodel.Log{
		mk("u", "SELECT 1", 0),
		mk("u", "SELECT 2", 0),
	}
	out, _ := Remove(l, time.Second)
	if len(out) != 2 {
		t.Fatalf("out=%d", len(out))
	}
}

func TestUnrestricted(t *testing.T) {
	l := logmodel.Log{
		mk("u", "Q", 0),
		mk("u", "Q", 24*time.Hour),
		mk("u", "Q", 48*time.Hour),
	}
	out, res := Remove(l, Unrestricted)
	if len(out) != 1 || res.Removed != 2 {
		t.Fatalf("out=%d removed=%d", len(out), res.Removed)
	}
	if res.Threshold != Unrestricted {
		t.Error("threshold not echoed")
	}
}

func TestExactThresholdBoundaryIsDuplicate(t *testing.T) {
	l := logmodel.Log{
		mk("u", "Q", 0),
		mk("u", "Q", time.Second), // exactly the threshold
	}
	out, _ := Remove(l, time.Second)
	if len(out) != 1 {
		t.Fatalf("boundary not removed: out=%d", len(out))
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Bigger thresholds can only remove more.
	var l logmodel.Log
	for i := 0; i < 50; i++ {
		l = append(l, mk("u", "Q", time.Duration(i)*700*time.Millisecond))
		l = append(l, mk("u", "R", time.Duration(i)*3*time.Second))
	}
	prev := -1
	for _, th := range []time.Duration{0, time.Second, 2 * time.Second, 10 * time.Second, Unrestricted} {
		_, res := Remove(l, th)
		if res.Removed < prev {
			t.Fatalf("threshold %v removed %d < previous %d", th, res.Removed, prev)
		}
		prev = res.Removed
	}
}

func TestOrderPreserved(t *testing.T) {
	l := logmodel.Log{
		mk("u", "A", 0),
		mk("u", "B", time.Second),
		mk("u", "A", 2*time.Second),
		mk("u", "C", 3*time.Second),
	}
	out, _ := Remove(l, 10*time.Second)
	want := []string{"A", "B", "C"}
	if len(out) != 3 {
		t.Fatalf("out=%v", out)
	}
	for i := range want {
		if out[i].Statement != want[i] {
			t.Errorf("pos %d: %q want %q", i, out[i].Statement, want[i])
		}
	}
}

func TestEmptyLog(t *testing.T) {
	out, res := Remove(nil, time.Second)
	if len(out) != 0 || res.Removed != 0 {
		t.Fatal("empty log mishandled")
	}
}

func TestRemoveIndexed(t *testing.T) {
	l := logmodel.Log{
		mk("u", "A", 0),
		mk("u", "A", time.Second/2), // duplicate of index 0
		mk("u", "B", time.Second),
		mk("v", "A", 2*time.Second),  // other user: kept
		mk("u", "B", 10*time.Second), // outside window: kept
	}
	out, kept, res := RemoveIndexed(l, time.Second)
	wantKept := []int{0, 2, 3, 4}
	if res.Removed != 1 {
		t.Fatalf("removed = %d, want 1", res.Removed)
	}
	if len(kept) != len(wantKept) {
		t.Fatalf("kept = %v, want %v", kept, wantKept)
	}
	for i, idx := range wantKept {
		if kept[i] != idx {
			t.Fatalf("kept = %v, want %v", kept, wantKept)
		}
		if out[i] != l[idx] {
			t.Fatalf("out[%d] = %+v, want input index %d", i, out[i], idx)
		}
	}
	// RemoveIndexed and Remove agree entry for entry.
	plain, pres := Remove(l, time.Second)
	if pres != res {
		t.Fatalf("results differ: %+v vs %+v", pres, res)
	}
	for i := range plain {
		if plain[i] != out[i] {
			t.Fatalf("entry %d differs between Remove and RemoveIndexed", i)
		}
	}
}
