package overlap

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// Pools the fuzz decoder draws from. Table names and set members include
// the separators a formatted signature would use (',', ':', ';', '\x02')
// and numbers written as strings, so boxes that read alike but differ in
// kind or structure meet often.
var (
	fuzzTables     = []string{"a", "b", "a,b", "photoobj"}
	fuzzCols       = []string{"ra", "dec", "x"}
	fuzzMembers    = []string{"1:2", "1", "0", "-0", "a", "b", "a\x02b", "x,y;z"}
	fuzzNumbers    = []float64{0, 1, 2, 3, 0.5, -1, 4, 1e12}
	fuzzThresholds = []float64{0, 0.1, 0.5, 0.9, 1}
)

const fuzzMaxBoxes = 64

// decodeFuzzBoxes reads a threshold and up to fuzzMaxBoxes boxes from data.
// Layout: one threshold byte, then per box a table-mask byte, a dim-count
// byte and four bytes per dim (column, kind, two parameters). A value byte
// v stands for float64(int8(v))/4, so quarter steps around zero, +0
// included, recur.
func decodeFuzzBoxes(data []byte) (float64, []Box) {
	if len(data) == 0 {
		return 0.9, nil
	}
	th := fuzzThresholds[int(data[0])%len(fuzzThresholds)]
	data = data[1:]
	val := func(v byte) float64 { return float64(int8(v)) / 4 }
	var boxes []Box
	for len(data) >= 2 && len(boxes) < fuzzMaxBoxes {
		b := Box{Tables: map[string]bool{}, Dims: map[string]Dim{}}
		for i, tb := range fuzzTables {
			if data[0]&(1<<i) != 0 {
				b.Tables[tb] = true
			}
		}
		ndims := int(data[1] % 4)
		data = data[2:]
		for ; ndims > 0 && len(data) >= 4; ndims-- {
			col, kind, p, q := fuzzCols[int(data[0])%len(fuzzCols)], data[1]%8, data[2], data[3]
			data = data[4:]
			var d Dim
			switch kind {
			case 0: // point
				d.Interval = Interval{Lo: val(p), Hi: val(p)}
			case 1: // proper interval
				d.Interval = Interval{Lo: val(p), Hi: val(p) + 1 + float64(q%4)/2}
			case 2: // empty interval
				d.Interval = Interval{Lo: val(p), Hi: val(p) - 1 - float64(q%3)}
			case 3: // the zero Interval: the whole domain
			case 4: // −0
				z := math.Copysign(0, -1)
				d.Interval = Interval{Lo: z, Hi: z}
			case 5: // string set, possibly empty
				d.Set = map[string]bool{}
				for i, m := range fuzzMembers {
					if p&(1<<i) != 0 {
						d.Set[m] = true
					}
				}
			case 6: // numeric IN list: members plus their covering interval
				d.Set = map[string]bool{}
				lo, hi := math.Inf(1), math.Inf(-1)
				for i, v := range fuzzNumbers {
					if p&(1<<i) != 0 {
						d.Set[strconv.FormatFloat(v, 'g', -1, 64)] = true
						lo, hi = math.Min(lo, v), math.Max(hi, v)
					}
				}
				if len(d.Set) > 0 {
					d.Interval = Interval{Lo: lo, Hi: hi}
				}
			case 7: // explicit full domain
				d.Interval = full
			}
			b.Dims[col] = d
		}
		boxes = append(boxes, b)
	}
	return th, boxes
}

// FuzzClusterMatchesOracle: the clustering path equals the ClusterBoxes
// leader scan on any input, with the same counters at every worker count.
func FuzzClusterMatchesOracle(f *testing.F) {
	// ra = '1:2' against ra BETWEEN 1 AND 2 (value byte 4 is 1.0).
	f.Add([]byte{3, 8, 1, 0, 5, 1, 0, 8, 1, 0, 1, 4, 0})
	// FROM [a,b] against FROM a, b.
	f.Add([]byte{3, 4, 0, 3, 0})
	// A point against numeric and string sets holding its formatting,
	// with −0, empty intervals and the zero Interval about.
	f.Add([]byte{2, 8, 1, 2, 0, 4, 0, 8, 1, 2, 6, 3, 0, 8, 1, 2, 5, 6, 0, 8, 2, 2, 4, 0, 0, 1, 2, 4, 0, 8, 1, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		th, boxes := decodeFuzzBoxes(data)
		want := ClusterBoxes(boxes, th)
		var first Counters
		for _, w := range []int{1, 2} {
			var ctr Counters
			got := ClusterBoxesFastGrid(boxes, th, w, &ctr)
			requireSameClustering(t, want, got, fmt.Sprintf("fast-grid(t=%g,w=%d) on %d boxes", th, w, len(boxes)))
			if w == 1 {
				first = ctr
			} else if ctr != first {
				t.Fatalf("t=%g: counters %+v at 2 workers, %+v at 1", th, ctr, first)
			}
		}
	})
}
