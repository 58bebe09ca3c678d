package logmodel_test

import (
	"bytes"
	"testing"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/workload"
)

// TestScanTSVLinesAllocsPerEntry pins what decoding costs: the scale-1
// generator log, written as TSV, read back through ScanTSVLines. Each entry
// costs one string per non-empty text field (user, session, statement) and
// nothing else; the scanner and its buffer are per call. The bound sits just
// above the 2.96 allocations per entry measured when it was set.
func TestScanTSVLinesAllocsPerEntry(t *testing.T) {
	const maxPerEntry = 2.97
	log, _ := workload.Generate(workload.DefaultConfig())
	var buf bytes.Buffer
	if err := logmodel.WriteTSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	n := 0
	allocs := testing.AllocsPerRun(3, func() {
		n = 0
		err := logmodel.ScanTSVLines(bytes.NewReader(body), func(int, logmodel.Entry) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != len(log) {
		t.Fatalf("decoded %d entries, wrote %d", n, len(log))
	}
	if perEntry := allocs / float64(len(log)); perEntry > maxPerEntry {
		t.Fatalf("ScanTSVLines allocates %.4f times per entry, bound %.2f", perEntry, maxPerEntry)
	}
}
