package overlap

import (
	"fmt"
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
	// A BoxSet never hands back such a box, so every caller keeps its
	// copies apart.
	var s BoxSet
	f := flatFromBox(empty)
	s.Add(f)
	if i := s.Find(&f); i != -1 {
		t.Fatalf("BoxSet found a copy of an empty-interval box at %d", i)
	}
}

// TestBoxIdentity pins the hash-and-compare identity: the same box is equal
// to itself whatever order its maps iterate in, and boxes that differ in
// any table, column, member, kind or float bit are not equal.
func TestBoxIdentity(t *testing.T) {
	iv := func(lo, hi float64) Dim { return Dim{Interval: Interval{Lo: lo, Hi: hi}} }
	set := func(members ...string) Dim {
		d := Dim{Set: map[string]bool{}}
		for _, m := range members {
			d.Set[m] = true
		}
		return d
	}
	box := func(tables []string, dims map[string]Dim) Box {
		b := Box{Tables: map[string]bool{}, Dims: dims}
		for _, tb := range tables {
			b.Tables[tb] = true
		}
		return b
	}
	// Map iteration order must not leak into the identity.
	d1 := box([]string{"t1", "t2"}, map[string]Dim{"a": set("x", "y"), "b": iv(0, 1)})
	d2 := box([]string{"t2", "t1"}, map[string]Dim{"b": iv(0, 1), "a": set("y", "x")})
	for i := 0; i < 20; i++ {
		f1, f2 := flatFromBox(d1), flatFromBox(d2)
		if f1.hash != f2.hash || !sameBox(&f1, &f2) {
			t.Fatal("identity not canonical")
		}
	}
	negZero := math_Copysign0()
	distinct := []Box{
		box([]string{"t"}, map[string]Dim{"a": iv(1, 2)}),
		box([]string{"t"}, map[string]Dim{"a": iv(1, 3)}),
		box([]string{"t"}, map[string]Dim{"a": set("x")}),
		// Never equal across dim kinds: a set whose member reads like an
		// interval, an empty set, the zero Interval.
		box([]string{"t"}, map[string]Dim{"a": set("1:2")}),
		box([]string{"t"}, map[string]Dim{"a": set()}),
		box([]string{"t"}, map[string]Dim{"a": set("0")}),
		box([]string{"t"}, map[string]Dim{"a": {}}),
		// Signed zero: equal points to Overlap, but not to a set member.
		box([]string{"t"}, map[string]Dim{"a": iv(negZero, negZero)}),
		// Separators inside names and members.
		box([]string{"a,b"}, map[string]Dim{}),
		box([]string{"a", "b"}, map[string]Dim{}),
		box([]string{"t"}, map[string]Dim{"a": set("x\x02y")}),
		box([]string{"t"}, map[string]Dim{"a": set("x", "y")}),
		box([]string{"t"}, map[string]Dim{"a=1": iv(1, 1)}),
		box([]string{"t"}, map[string]Dim{"a": iv(1, 1), "": iv(1, 1)}),
		box(nil, map[string]Dim{"a": iv(1, 2)}),
	}
	flat := flatBoxes(distinct)
	for i := range flat {
		if !sameBox(&flat[i], &flat[i]) {
			t.Errorf("box %d not equal to itself", i)
		}
		for j := range flat {
			if i != j && sameBox(&flat[i], &flat[j]) {
				t.Errorf("boxes %d and %d are equal: %+v, %+v", i, j, distinct[i], distinct[j])
			}
		}
	}
	var s BoxSet
	for i := range flat {
		if s.Find(&flat[i]) != -1 {
			t.Fatalf("box %d found before it was added", i)
		}
		if got := s.Add(flat[i]); got != i {
			t.Fatalf("Add returned %d, want %d", got, i)
		}
	}
	for i := range flat {
		dup := flatFromBox(distinct[i])
		if got := s.Find(&dup); got != i {
			t.Errorf("Find(copy of box %d) = %d", i, got)
		}
	}
}

// collisionPairs are statement pairs the old string signature gave one key,
// though each pair has Overlap 0.
var collisionPairs = [][2]string{
	{"SELECT * FROM photoobj WHERE ra = '1:2'", "SELECT * FROM photoobj WHERE ra BETWEEN 1 AND 2"},
	{"SELECT * FROM [a,b]", "SELECT * FROM a, b"},
}

// TestCollidingBoxesStayApart: boxes that a formatted signature confused
// must not be merged by the clustering path.
func TestCollidingBoxesStayApart(t *testing.T) {
	for _, pair := range collisionPairs {
		boxes := []Box{box(t, pair[0]), box(t, pair[1])}
		if o := Overlap(boxes[0], boxes[1]); o != 0 {
			t.Fatalf("%q: Overlap %v, want 0", pair, o)
		}
		for _, th := range []float64{0.5, 0.9, 1} {
			want := ClusterBoxes(boxes, th)
			if len(want) != 2 {
				t.Fatalf("%q th %g: leader scan made %d clusters, want 2", pair, th, len(want))
			}
			requireSameClustering(t, want, ClusterBoxesFastGrid(boxes, th, 1, nil), fmt.Sprintf("%q th %g", pair, th))
		}
	}
}
