package overlap

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// Thresholds the equivalence suite sweeps: the degenerate ends, the paper's
// operating point (0.9), and two mid-range values.
var gridThresholds = []float64{0, 0.1, 0.5, 0.9, 1.0}

var gridWorkerCounts = []int{1, 2, 4, 8}

// randGridBox draws a box from a deliberately nasty distribution: small
// value pools (so identical and near-identical boxes recur), every Dim
// shape dimOverlap distinguishes (proper/point/empty/full/zero-value
// intervals, string sets, numeric IN sets), and interval endpoints placed
// both on and just off integer cell boundaries.
func randGridBox(r *rand.Rand) Box {
	b := Box{Tables: map[string]bool{}, Dims: map[string]Dim{}}
	tables := []string{"photoobj", "specobj", "neighbors"}
	for _, t := range tables {
		if r.Intn(3) == 0 {
			b.Tables[t] = true
		}
	}
	cols := []string{"ra", "dec", "htmid", "objid", "name"}
	for _, c := range cols {
		if r.Intn(2) != 0 {
			continue
		}
		switch r.Intn(7) {
		case 0: // proper interval, length 1, lo on a small lattice
			lo := float64(r.Intn(20))
			b.Dims[c] = Dim{Interval: Interval{Lo: lo, Hi: lo + 1}}
		case 1: // proper interval straddling integer boundaries
			lo := float64(r.Intn(20)) - 0.5
			b.Dims[c] = Dim{Interval: Interval{Lo: lo, Hi: lo + float64(1+r.Intn(3))}}
		case 2: // point (some collide with set members below)
			b.Dims[c] = Dim{Interval: Interval{Lo: float64(r.Intn(6)), Hi: float64(r.Intn(6))}}
			v := float64(r.Intn(6))
			b.Dims[c] = Dim{Interval: Interval{Lo: v, Hi: v}}
		case 3: // empty interval (contradictory range predicate)
			lo := float64(r.Intn(6))
			b.Dims[c] = Dim{Interval: Interval{Lo: lo, Hi: lo - 1}}
		case 4: // string set
			set := map[string]bool{}
			for i := 0; i <= r.Intn(3); i++ {
				set[fmt.Sprintf("v%d", r.Intn(6))] = true
			}
			b.Dims[c] = Dim{Set: set}
		case 5: // numeric IN: set plus covering interval, as dimFromPredicate builds
			set := map[string]bool{}
			lo, hi := 1e18, -1e18
			for i := 0; i <= r.Intn(3); i++ {
				v := float64(r.Intn(6))
				set[strconv.FormatFloat(v, 'g', -1, 64)] = true
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			b.Dims[c] = Dim{Set: set, Interval: Interval{Lo: lo, Hi: hi}}
		case 6: // unconstrained encodings: explicit full or the zero value
			if r.Intn(2) == 0 {
				b.Dims[c] = Dim{Interval: full}
			} else {
				b.Dims[c] = Dim{}
			}
		}
	}
	return b
}

// flatBoxes converts map boxes to flat form.
func flatBoxes(boxes []Box) []FlatBox {
	out := make([]FlatBox, len(boxes))
	for i, b := range boxes {
		out[i] = flatFromBox(b)
	}
	return out
}

func requireSameClustering(t *testing.T, want, got []Cluster, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s diverged from ClusterBoxes:\n want %+v\n  got %+v", label, want, got)
	}
}

// checkGridEquivalence asserts that the serial grid and ClusterBoxesFastGrid
// at every worker count are byte-identical to the quadratic leader scan, and
// that the fast path's work counters do not depend on the worker count.
func checkGridEquivalence(t *testing.T, boxes []Box, threshold float64) {
	t.Helper()
	want := ClusterBoxes(boxes, threshold)
	var ctr Counters
	got := ClusterFlat(flatBoxes(boxes), threshold, &ctr)
	requireSameClustering(t, want, got, fmt.Sprintf("grid(t=%g)", threshold))
	if ctr.Comparisons > ctr.ScanComparisons {
		t.Fatalf("t=%g: grid did more comparisons (%d) than the scan would (%d)",
			threshold, ctr.Comparisons, ctr.ScanComparisons)
	}
	var first Counters
	for i, w := range gridWorkerCounts {
		var fctr Counters
		gotF := ClusterBoxesFastGrid(boxes, threshold, w, &fctr)
		requireSameClustering(t, want, gotF, fmt.Sprintf("fast-grid(t=%g,w=%d)", threshold, w))
		if i == 0 {
			first = fctr
		} else if fctr != first {
			t.Fatalf("t=%g w=%d: counters %+v differ from w=%d's %+v",
				threshold, w, fctr, gridWorkerCounts[0], first)
		}
	}
}

func TestGridEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(100)
		boxes := make([]Box, n)
		for i := range boxes {
			boxes[i] = randGridBox(r)
		}
		for _, th := range gridThresholds {
			checkGridEquivalence(t, boxes, th)
		}
	}
}

// TestGridEquivalenceLargeBatched runs the suite on 1,500 random boxes: long
// leader lists, crowded grid cells, and a flat-box conversion that every
// worker count splits.
func TestGridEquivalenceLargeBatched(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	boxes := make([]Box, 1500)
	for i := range boxes {
		boxes[i] = randGridBox(r)
	}
	for _, th := range []float64{0.1, 0.9, 1.0} {
		checkGridEquivalence(t, boxes, th)
	}
}

func TestGridEquivalenceAllIdentical(t *testing.T) {
	proto := Box{
		Tables: map[string]bool{"photoobj": true},
		Dims:   map[string]Dim{"ra": {Interval: Interval{Lo: 10, Hi: 20}}},
	}
	boxes := make([]Box, 600)
	for i := range boxes {
		boxes[i] = proto
	}
	for _, th := range gridThresholds {
		checkGridEquivalence(t, boxes, th)
	}
}

func TestGridEquivalenceAllDisjoint(t *testing.T) {
	boxes := make([]Box, 600)
	for i := range boxes {
		lo := float64(i) * 1000
		boxes[i] = Box{
			Tables: map[string]bool{"photoobj": true},
			Dims:   map[string]Dim{"htmid": {Interval: Interval{Lo: lo, Hi: lo + 100}}},
		}
	}
	for _, th := range gridThresholds {
		checkGridEquivalence(t, boxes, th)
	}
}

// TestGridEquivalenceCellStraddlers places interval boxes so that matching
// pairs sit on opposite sides of every cell boundary: marching windows
// shifted by a fraction of the (median-length) cell width.
func TestGridEquivalenceCellStraddlers(t *testing.T) {
	var boxes []Box
	for i := 0; i < 300; i++ {
		lo := float64(i)*0.25 - 1e-9 // quarter-width steps, epsilon off the lattice
		boxes = append(boxes, Box{
			Tables: map[string]bool{"specobj": true},
			Dims:   map[string]Dim{"dec": {Interval: Interval{Lo: lo, Hi: lo + 1}}},
		})
	}
	for _, th := range gridThresholds {
		checkGridEquivalence(t, boxes, th)
	}
}

// TestGridEquivalenceNoDims covers boxes prunable only by table: mixtures
// of overlapping, disjoint, and empty table sets with no predicates.
func TestGridEquivalenceNoDims(t *testing.T) {
	tableSets := []map[string]bool{
		{"photoobj": true},
		{"specobj": true},
		{"photoobj": true, "specobj": true},
		{},
	}
	var boxes []Box
	for i := 0; i < 200; i++ {
		boxes = append(boxes, Box{Tables: tableSets[i%len(tableSets)], Dims: map[string]Dim{}})
	}
	for _, th := range gridThresholds {
		checkGridEquivalence(t, boxes, th)
	}
}

// TestGridEquivalenceSignedZero pins the −0/+0 corner: equal points with
// different decimal formats must still cluster together.
func TestGridEquivalenceSignedZero(t *testing.T) {
	negZero := math_Copysign0()
	boxes := []Box{
		{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Interval: Interval{Lo: 0, Hi: 0}}}},
		{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Interval: Interval{Lo: negZero, Hi: negZero}}}},
		{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Set: map[string]bool{"-0": true}}}},
		{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"x": {Set: map[string]bool{"0": true}}}},
	}
	for _, th := range gridThresholds {
		checkGridEquivalence(t, boxes, th)
	}
}

func math_Copysign0() float64 {
	z := 0.0
	return -z
}

// TestGridPruning10kDistinct is the acceptance gate: on 10k distinct
// SkyServer-shaped boxes (marching htmid windows over a handful of window
// sizes), the grid must evaluate at least 5× fewer pairwise overlaps than
// the leader scan. ScanComparisons is the exact counterfactual because the
// grid's output is identical to the scan's.
func TestGridPruning10kDistinct(t *testing.T) {
	boxes := skyserverDistinctBoxes(10000)
	var ctr Counters
	ClusterFlat(flatBoxes(boxes), 0.9, &ctr)
	if ctr.Comparisons == 0 {
		t.Fatal("counter not wired: zero comparisons recorded")
	}
	if ctr.ScanComparisons < 5*ctr.Comparisons {
		t.Fatalf("grid pruning below 5x: %d comparisons vs %d for the scan (%.1fx)",
			ctr.Comparisons, ctr.ScanComparisons,
			float64(ctr.ScanComparisons)/float64(ctr.Comparisons))
	}
	t.Logf("grid: %d overlap calls, scan: %d (%.1fx fewer, %d cells probed)",
		ctr.Comparisons, ctr.ScanComparisons,
		float64(ctr.ScanComparisons)/float64(ctr.Comparisons), ctr.CellsProbed)
}

// skyserverDistinctBoxes builds n distinct boxes shaped like the SkyServer
// SWS bots: htmid windows marching across the sky, a few window widths,
// occasional ra/dec range constraints.
func skyserverDistinctBoxes(n int) []Box {
	widths := []float64{1e5, 2e5, 5e5}
	boxes := make([]Box, n)
	for i := range boxes {
		w := widths[i%len(widths)]
		lo := float64(i) * 1e5
		b := Box{
			Tables: map[string]bool{"photoobj": true},
			Dims:   map[string]Dim{"htmid": {Interval: Interval{Lo: lo, Hi: lo + w}}},
		}
		if i%7 == 0 {
			ra := float64(i % 360)
			b.Dims["ra"] = Dim{Interval: Interval{Lo: ra, Hi: ra + 0.5}}
		}
		boxes[i] = b
	}
	return boxes
}

// TestClusterBoxesFastStillEquivalent guards the fast path's preallocated
// expansion against the quadratic reference on the random distribution.
func TestClusterBoxesFastStillEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	boxes := make([]Box, 400)
	for i := range boxes {
		boxes[i] = randGridBox(r)
	}
	for _, th := range gridThresholds {
		want := ClusterBoxes(boxes, th)
		for _, w := range gridWorkerCounts {
			gotFG := ClusterBoxesFastGrid(boxes, th, w, nil)
			requireSameClustering(t, want, gotFG, fmt.Sprintf("fast-grid(t=%g,w=%d)", th, w))
		}
	}
}
