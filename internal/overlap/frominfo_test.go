package overlap

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sqlclean/internal/parsedlog"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlparser"
	"sqlclean/internal/workload"
)

// refFromInfo is the map-building FromInfo the flat builder replaced, kept
// as the reference for the predicate-to-constraint rules.
func refFromInfo(in *skeleton.Info) Box {
	b := Box{Tables: map[string]bool{}, Dims: map[string]Dim{}}
	for _, t := range in.TableNames {
		b.Tables[t] = true
	}
	for _, p := range in.Predicates {
		if p.Column == "" || p.Op == "complex" {
			continue
		}
		d, ok := refDimFromPredicate(p)
		if !ok {
			continue
		}
		if prev, exists := b.Dims[p.Column]; exists {
			b.Dims[p.Column] = refCombineDims(prev, d)
			continue
		}
		b.Dims[p.Column] = d
	}
	return b
}

func refDimFromPredicate(p skeleton.Predicate) (Dim, bool) {
	num := func(i int) (float64, bool) {
		if i >= len(p.Literals) || p.Literals[i].Kind != "num" {
			return 0, false
		}
		f, err := strconv.ParseFloat(p.Literals[i].Val, 64)
		return f, err == nil
	}
	switch p.Op {
	case "=":
		if v, ok := num(0); ok {
			return Dim{Interval: Interval{Lo: v, Hi: v}}, true
		}
		if len(p.Literals) == 1 && p.Literals[0].Kind == "str" {
			return Dim{Set: map[string]bool{strings.ToLower(p.Literals[0].Val): true}}, true
		}
	case "<", "<=":
		if v, ok := num(0); ok {
			return Dim{Interval: Interval{Lo: full.Lo, Hi: v}}, true
		}
	case ">", ">=":
		if v, ok := num(0); ok {
			return Dim{Interval: Interval{Lo: v, Hi: full.Hi}}, true
		}
	case "BETWEEN":
		lo, ok1 := num(0)
		hi, ok2 := num(1)
		if ok1 && ok2 {
			return Dim{Interval: Interval{Lo: lo, Hi: hi}}, true
		}
	case "IN":
		set := map[string]bool{}
		numeric := true
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, l := range p.Literals {
			if l.Kind == "num" {
				f, err := strconv.ParseFloat(l.Val, 64)
				if err == nil {
					lo = math.Min(lo, f)
					hi = math.Max(hi, f)
					set[l.Val] = true
					continue
				}
			}
			numeric = false
			set[strings.ToLower(l.Val)] = true
		}
		if len(set) == 0 {
			return Dim{}, false
		}
		if numeric {
			return Dim{Set: set, Interval: Interval{Lo: lo, Hi: hi}}, true
		}
		return Dim{Set: set}, true
	}
	return Dim{}, false
}

func refCombineDims(a, b Dim) Dim {
	if a.Set != nil && b.Set != nil {
		out := map[string]bool{}
		for k := range a.Set {
			if b.Set[k] {
				out[k] = true
			}
		}
		return Dim{Set: out}
	}
	return Dim{Interval: intersect(orFull(a.Interval), orFull(b.Interval))}
}

// fromInfoEdgeCases exercise every rule of the builder.
var fromInfoEdgeCases = []string{
	// IN lists: numeric, string, mixed, with duplicates and case.
	"SELECT * FROM t WHERE x IN (3, 1, 2, 1)",
	"SELECT * FROM t WHERE x IN ('B', 'a', 'b')",
	"SELECT * FROM t WHERE x IN (1, 'A', 2.5, -0)",
	"SELECT * FROM t WHERE x IN (1e400, 2)",
	// Conjunctions on one column.
	"SELECT * FROM t WHERE x IN (1, 2, 3) AND x IN (2, 3, 4)", // set ∧ set
	"SELECT * FROM t WHERE x IN ('a', 'b') AND x IN ('c')",    // empty intersection
	"SELECT * FROM t WHERE x = 'a' AND x = 'a'",               // string set ∧ set
	"SELECT * FROM t WHERE x IN (1, 5, 9) AND x >= 4",         // set ∧ interval
	"SELECT * FROM t WHERE x >= 4 AND x IN (1, 5, 9)",         // interval ∧ set
	"SELECT * FROM t WHERE x = 'a' AND x BETWEEN 1 AND 2",     // string set ∧ interval
	"SELECT * FROM t WHERE x >= 10 AND x <= 20",               // interval ∧ interval
	"SELECT * FROM t WHERE x > 5 AND x < 3",                   // contradictory range
	"SELECT * FROM t WHERE x BETWEEN 5 AND 3",                 // contradictory BETWEEN
	"SELECT * FROM t WHERE x >= 1 AND x <= 9 AND x BETWEEN 2 AND 3 AND y = 4",
	// Zero and signed zero: x = 0 is the zero Interval, which orFull
	// widens to the whole domain.
	"SELECT * FROM t WHERE x = 0",
	"SELECT * FROM t WHERE x = -0",
	"SELECT * FROM t WHERE x = 0 AND x > -5",
	"SELECT * FROM t WHERE x = -0 AND y = 0",
	// Predicates that give no dimension.
	"SELECT * FROM t WHERE name LIKE 'a%'",
	"SELECT * FROM t WHERE a = 1 OR b = 2",
	"SELECT * FROM t WHERE a <> 1 AND b IS NULL AND c = d",
	"SELECT * FROM t",
	// Tables: several, repeated, bracketed with a comma.
	"SELECT * FROM b, a, c WHERE a.x = 1",
	"SELECT * FROM a JOIN a AS a2 ON a.id = a2.id",
	"SELECT * FROM [a,b]",
	"SELECT * FROM photoobj WHERE ra = '1:2'",
	"SELECT * FROM photoobj WHERE ra BETWEEN 1 AND 2",
}

func requireFromInfo(t *testing.T, in *skeleton.Info, label string) {
	t.Helper()
	want, got := refFromInfo(in), FromInfo(in)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: FromInfo differs from the reference\n want %+v\n  got %+v", label, want, got)
	}
}

// TestFromInfoMatchesReference: the flat builder, converted back to a map
// box, equals the map-building reference on every SELECT of the generated
// logs and on the edge cases.
func TestFromInfoMatchesReference(t *testing.T) {
	for _, q := range fromInfoEdgeCases {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		requireFromInfo(t, skeleton.Analyze(sel), q)
	}
	for _, seed := range []int64{1, 7} {
		cfg := workload.DefaultConfig().Scale(2)
		cfg.Seed = seed
		l, _ := workload.Generate(cfg)
		parsed, _ := parsedlog.Parse(l)
		n := 0
		for _, pe := range parsed.Selects() {
			requireFromInfo(t, pe.Info, pe.Statement)
			n++
		}
		if n < 10000 {
			t.Fatalf("seed %d: only %d SELECTs", seed, n)
		}
	}
}

// TestFlatBoxAllocs pins the builder's allocations: a one-table, one-dim
// summary costs at most two (in practice the dims slice alone, since a
// single table name is shared with the summary), and hashing and the exact
// comparison allocate nothing.
func TestFlatBoxAllocs(t *testing.T) {
	sel, err := sqlparser.ParseSelect("SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	in := skeleton.Analyze(sel)
	var b FlatBox
	if a := testing.AllocsPerRun(100, func() { b = FlatFromInfo(in) }); a > 2 {
		t.Errorf("FlatFromInfo: %.1f allocations, want at most 2", a)
	}
	c := FlatFromInfo(in)
	var h uint64
	if a := testing.AllocsPerRun(100, func() { h = boxHash(&b) }); a != 0 {
		t.Errorf("boxHash: %.1f allocations, want 0", a)
	}
	same := false
	if a := testing.AllocsPerRun(100, func() { same = sameBox(&b, &c) }); a != 0 {
		t.Errorf("sameBox: %.1f allocations, want 0", a)
	}
	if h != c.hash || !same {
		t.Fatal("two builds of one summary differ")
	}
}

// TestOverlapDeterministic: Overlap multiplies its factors in one order
// (ascending column name), so repeated calls return one value, bit for bit
// the clustering path's.
func TestOverlapDeterministic(t *testing.T) {
	iv := func(lo, hi float64) Dim { return Dim{Interval: Interval{Lo: lo, Hi: hi}} }
	a := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"a": iv(0, 10), "b": iv(0, 10), "c": iv(0, 10)}}
	b := Box{Tables: map[string]bool{"t": true}, Dims: map[string]Dim{"a": iv(1, 11), "b": iv(1, 11), "c": iv(2, 12)}}
	gb, _, _ := intern(flatBoxes([]Box{a, b}))
	want := overlapInterned(&gb[0], &gb[1])
	for i := 0; i < 200; i++ {
		if got := Overlap(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Overlap %v, flat path %v", i, got, want)
		}
	}
	// The same holds on random boxes, both ways round.
	r := rand.New(rand.NewSource(3))
	boxes := make([]Box, 300)
	for i := range boxes {
		boxes[i] = randGridBox(r)
	}
	gb, _, _ = intern(flatBoxes(boxes))
	for i := 1; i < len(boxes); i++ {
		for _, j := range []int{i - 1, 0} {
			if got, want := Overlap(boxes[i], boxes[j]), overlapInterned(&gb[i], &gb[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("boxes %d, %d: Overlap %v, flat path %v", i, j, got, want)
			}
		}
	}
}
