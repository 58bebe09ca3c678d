package overlap

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomBoxes(rng *rand.Rand, n int) []Box {
	tables := []string{"t1", "t2", "t3"}
	cols := []string{"a", "b", "c"}
	out := make([]Box, n)
	for i := range out {
		b := Box{Tables: map[string]bool{tables[rng.Intn(len(tables))]: true}, Dims: map[string]Dim{}}
		for d := 0; d <= rng.Intn(2); d++ {
			col := cols[rng.Intn(len(cols))]
			switch rng.Intn(3) {
			case 0:
				v := float64(rng.Intn(5))
				b.Dims[col] = Dim{Interval: Interval{Lo: v, Hi: v}}
			case 1:
				lo := float64(rng.Intn(5)) * 10
				b.Dims[col] = Dim{Interval: Interval{Lo: lo, Hi: lo + 10}}
			default:
				b.Dims[col] = Dim{Set: map[string]bool{string(rune('x' + rng.Intn(3))): true}}
			}
		}
		out[i] = b
	}
	return out
}

func TestClusterBoxesFastEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		boxes := randomBoxes(rng, 200)
		for _, th := range []float64{0.1, 0.5, 0.9} {
			slow := ClusterBoxes(boxes, th)
			fast := ClusterBoxesFastGrid(boxes, th, 2, nil)
			if len(slow) != len(fast) {
				t.Fatalf("trial %d th %.1f: %d vs %d clusters", trial, th, len(slow), len(fast))
			}
			for i := range slow {
				if slow[i].Representative != fast[i].Representative {
					t.Fatalf("trial %d th %.1f cluster %d: representative %d vs %d",
						trial, th, i, slow[i].Representative, fast[i].Representative)
				}
				if !reflect.DeepEqual(slow[i].Members, fast[i].Members) {
					t.Fatalf("trial %d th %.1f cluster %d: members differ\nslow: %v\nfast: %v",
						trial, th, i, slow[i].Members, fast[i].Members)
				}
			}
		}
	}
}

func TestClusterBoxesFastZeroThresholdFallback(t *testing.T) {
	boxes := randomBoxes(rand.New(rand.NewSource(1)), 30)
	slow := ClusterBoxes(boxes, 0)
	fast := ClusterBoxesFastGrid(boxes, 0, 2, nil)
	if !reflect.DeepEqual(slow, fast) {
		t.Fatal("zero-threshold results differ")
	}
	if len(fast) != len(boxes) {
		t.Fatalf("threshold 0 must make singletons: %d clusters", len(fast))
	}
}

// TestClusterBoxesFastGridEmptyIntervalCopies: a box with an empty interval
// overlaps nothing, not even a copy of itself, so the leader scan founds a
// cluster for every copy that no earlier leader takes; the dedup must not
// merge the copies either.
func TestClusterBoxesFastGridEmptyIntervalCopies(t *testing.T) {
	empty := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Interval: Interval{Lo: 5, Hi: 3}}}}
	set := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Set: map[string]bool{"5": true}}}}
	boxes := []Box{empty, set, empty, empty}
	for _, th := range []float64{0.5, 1} {
		want := ClusterBoxes(boxes, th)
		if len(want) != 3 {
			t.Fatalf("th %g: leader scan made %d clusters, want 3: %+v", th, len(want), want)
		}
		if got := ClusterBoxesFastGrid(boxes, th, 1, nil); !reflect.DeepEqual(want, got) {
			t.Fatalf("th %g: fast grid %+v, leader scan %+v", th, got, want)
		}
	}
}

func TestSignatureDistinguishesBoxes(t *testing.T) {
	a := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"a": {Interval: Interval{Lo: 1, Hi: 2}}}}
	b := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"a": {Interval: Interval{Lo: 1, Hi: 3}}}}
	c := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"a": {Set: map[string]bool{"x": true}}}}
	if signature(a) == signature(b) || signature(a) == signature(c) {
		t.Error("signatures collide")
	}
	// Map iteration order must not leak into the signature.
	d1 := Box{Tables: map[string]bool{"t1": true, "t2": true}, Dims: map[string]Dim{
		"a": {Set: map[string]bool{"x": true, "y": true}},
		"b": {Interval: Interval{Lo: 0, Hi: 1}},
	}}
	d2 := Box{Tables: map[string]bool{"t2": true, "t1": true}, Dims: map[string]Dim{
		"b": {Interval: Interval{Lo: 0, Hi: 1}},
		"a": {Set: map[string]bool{"y": true, "x": true}},
	}}
	for i := 0; i < 20; i++ {
		if signature(d1) != signature(d2) {
			t.Fatal("signature not canonical")
		}
	}
}
