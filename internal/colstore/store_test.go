package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
)

// genEntries builds a SkyServer-flavored workload: a small template pool
// repeated with varying literals — the distribution the paper's log has and
// the store is designed around.
func genEntries(n int, seed int64) []logmodel.Entry {
	rng := rand.New(rand.NewSource(seed))
	templates := []func() string{
		func() string {
			return fmt.Sprintf("SELECT top 10 ra,dec FROM PhotoObj WHERE objID=%d", rng.Int63())
		},
		func() string {
			return fmt.Sprintf("SELECT * FROM SpecObj WHERE z BETWEEN %.3f AND %.3f", rng.Float64(), rng.Float64())
		},
		func() string {
			return fmt.Sprintf("SELECT name FROM users WHERE name = '%c%d'", 'a'+rune(rng.Intn(26)), rng.Intn(1000))
		},
		func() string {
			return fmt.Sprintf("SELECT count(*) FROM Neighbors WHERE distance < %.5f -- radius", rng.Float64())
		},
		func() string { return "SELECT TOP 1 * FROM PhotoObj" }, // no params
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	entries := make([]logmodel.Entry, n)
	for i := range entries {
		entries[i] = logmodel.Entry{
			Seq:       int64(i + 1),
			Time:      base.Add(time.Duration(i) * 137 * time.Millisecond),
			User:      fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(16)),
			Session:   fmt.Sprintf("s%d", rng.Intn(64)),
			Rows:      int64(rng.Intn(500)),
			Statement: templates[rng.Intn(len(templates))](),
		}
	}
	return entries
}

// writeWAL journals the entries and returns the dir. Small segments force
// rotation so compaction sees several sealed segments.
func writeWAL(t *testing.T, dir string, entries []logmodel.Entry, segBytes int64) {
	t.Helper()
	jw, err := journal.Open(journal.Options{Dir: dir, SegmentBytes: segBytes, Policy: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := jw.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

func walPayloads(t *testing.T, dir string) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	_, err := journal.Replay(dir, 0, func(lsn uint64, payload []byte) error {
		got[lsn] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func dirBytes(t *testing.T, dir, pattern string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestCompactScanRoundTrip is the tentpole property: WAL → compact → scan
// reproduces every journal frame bit-identically, across random seeds.
func TestCompactScanRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260808} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			entries := genEntries(500, seed)
			writeWAL(t, walDir, entries, 8<<10)
			want := walPayloads(t, walDir)

			st, err := Open(Options{Dir: filepath.Join(t.TempDir(), "blocks")})
			if err != nil {
				t.Fatal(err)
			}
			n, err := st.CompactWALDir(walDir, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(entries) {
				t.Fatalf("compacted %d entries, want %d", n, len(entries))
			}

			// The originating segments are now gone: scans must come from blocks.
			segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
			if len(segs) < 2 {
				t.Fatalf("want multiple WAL segments, got %d", len(segs))
			}
			for _, s := range segs {
				if err := os.Remove(s); err != nil {
					t.Fatal(err)
				}
			}

			got := map[uint64][]byte{}
			var buf []byte
			err = st.Reader().Scan(ScanOptions{}, func(lsn uint64, e logmodel.Entry) error {
				buf = journal.EncodeEntry(buf[:0], e)
				got[lsn] = append([]byte(nil), buf...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d frames, want %d", len(got), len(want))
			}
			for lsn, w := range want {
				if !bytes.Equal(got[lsn], w) {
					t.Fatalf("lsn %d: reconstructed frame differs\n got %q\nwant %q", lsn, got[lsn], w)
				}
			}
		})
	}
}

// TestKillMidCompaction simulates every crash point of the compaction
// lifecycle and checks the invariant: the entries survive in the journal
// segment, a valid block, or both — never neither.
func TestKillMidCompaction(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	entries := genEntries(120, 3)
	writeWAL(t, walDir, entries, 4<<10)
	blockDir := filepath.Join(t.TempDir(), "blocks")

	st, err := Open(Options{Dir: blockDir})
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}

	// Crash before rename: a torn tmp file is left behind. Reopening the
	// store sweeps it, and the segment compacts cleanly afterwards.
	if _, err := st.CompactSegment(segs[0], nil); err != nil {
		t.Fatal(err)
	}
	blocks, _ := filepath.Glob(filepath.Join(blockDir, "blk-*.col"))
	if len(blocks) != 1 {
		t.Fatalf("want 1 block, got %v", blocks)
	}
	tmp := blocks[0] + ".tmp"
	if err := os.WriteFile(tmp, []byte("torn partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: blockDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("reopen did not sweep tmp file: %v", err)
	}

	// Crash between block rename and segment removal: both files exist.
	// Re-compaction is an idempotent no-op and the block stays valid.
	n, err := st2.CompactSegment(segs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb, _ := st2.Stats(); nb != 1 {
		t.Fatalf("idempotent recompaction grew the store to %d blocks", nb)
	}
	if n == 0 {
		t.Fatal("recompaction reported 0 entries")
	}
	b, err := ReadBlockIndex(blocks[0])
	if err == nil {
		err = b.Scan(func(uint64, logmodel.Entry) error { return nil })
	}
	if err != nil {
		t.Fatalf("block invalid after recompaction: %v", err)
	}

	// Compaction failure (unreadable segment) must not lose the segment:
	// the caller skips truncation on error, so the WAL still has the data.
	bad := filepath.Join(walDir, "wal-ffffffffffffffff.log")
	if err := os.WriteFile(bad, []byte("\x10\x00\x00\x00garbagegarbagegarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A garbage segment reads as torn-from-frame-0: zero valid frames, no block.
	if n, err := st2.CompactSegment(bad, nil); err != nil || n != 0 {
		t.Fatalf("garbage segment: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestCompressionRatio checks the acceptance bar: a 100k-entry log's blocks
// total ≤ 20% of its WAL byte size.
func TestCompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-entry compaction in -short mode")
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	entries := genEntries(100_000, 11)
	writeWAL(t, walDir, entries, journal.DefaultSegmentBytes)
	walBytes := dirBytes(t, walDir, "wal-*.log")

	st, err := Open(Options{Dir: filepath.Join(t.TempDir(), "blocks")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactWALDir(walDir, true, nil); err != nil {
		t.Fatal(err)
	}
	_, blockBytes := st.Stats()
	ratio := float64(blockBytes) / float64(walBytes)
	t.Logf("wal=%d block=%d ratio=%.3f", walBytes, blockBytes, ratio)
	if ratio > 0.20 {
		t.Fatalf("compaction ratio %.3f exceeds 0.20 (wal=%d, blocks=%d)", ratio, walBytes, blockBytes)
	}
}

// TestEviction fills a capped store and checks oldest-first eviction.
func TestEviction(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	entries := genEntries(600, 5)
	writeWAL(t, walDir, entries, 4<<10)
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments, got %d", len(segs))
	}

	// First compact uncapped to learn one block's size, then cap to ~2 blocks.
	probe, err := Open(Options{Dir: filepath.Join(t.TempDir(), "probe")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.CompactSegment(segs[0], nil); err != nil {
		t.Fatal(err)
	}
	_, one := probe.Stats()

	st, err := Open(Options{Dir: filepath.Join(t.TempDir(), "blocks"), MaxBytes: one*2 + one/2})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if _, err := st.CompactSegment(seg, nil); err != nil {
			t.Fatal(err)
		}
	}
	nb, bytes := st.Stats()
	if bytes > one*2+one/2 {
		t.Fatalf("store over cap after eviction: %d > %d", bytes, one*2+one/2)
	}
	if nb >= len(segs) {
		t.Fatalf("nothing was evicted: %d blocks from %d segments", nb, len(segs))
	}
	// The survivors must be the NEWEST blocks.
	blocks, err := st.Reader().Blocks()
	if err != nil {
		t.Fatal(err)
	}
	var minFirst uint64 = 1<<64 - 1
	for _, b := range blocks {
		if b.Meta.FirstLSN < minFirst {
			minFirst = b.Meta.FirstLSN
		}
	}
	if minFirst == 1 {
		t.Fatal("oldest block survived eviction")
	}
	// Scans of the evicted range return nothing; the retained range scans.
	var got int
	err = st.Reader().Scan(ScanOptions{}, func(uint64, logmodel.Entry) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 || got >= len(entries) {
		t.Fatalf("retained scan count %d out of range (0, %d)", got, len(entries))
	}
}

// TestScanPruning covers time-range and template filters.
func TestScanPruning(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	entries := genEntries(400, 9)
	writeWAL(t, walDir, entries, 4<<10)
	st, err := Open(Options{Dir: filepath.Join(t.TempDir(), "blocks")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactWALDir(walDir, true, nil); err != nil {
		t.Fatal(err)
	}

	// Time-range filter: matches exactly the entries inside the range.
	from := entries[100].Time
	to := entries[300].Time
	want := 0
	for _, e := range entries {
		if !e.Time.Before(from) && !e.Time.After(to) {
			want++
		}
	}
	got := 0
	err = st.Reader().Scan(ScanOptions{From: from, To: to}, func(_ uint64, e logmodel.Entry) error {
		if e.Time.Before(from) || e.Time.After(to) {
			t.Fatalf("entry at %v outside [%v, %v]", e.Time, from, to)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("time-range scan: got %d entries, want %d", got, want)
	}

	// Template filter by lexical fingerprint: only that template's entries.
	sk, _, _ := Split(entries[0].Statement)
	fp := Fingerprint(sk)
	want = 0
	for _, e := range entries {
		s, _, _ := Split(e.Statement)
		if s == sk {
			want++
		}
	}
	got = 0
	err = st.Reader().Scan(ScanOptions{Templates: map[uint64]bool{fp: true}}, func(_ uint64, e logmodel.Entry) error {
		s, _, _ := Split(e.Statement)
		if s != sk {
			t.Fatalf("template filter leaked %q", e.Statement)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("template scan: got %d entries, want %d (nonzero)", got, want)
	}

	// Unknown template: nothing.
	err = st.Reader().Scan(ScanOptions{Templates: map[uint64]bool{0xdead: true}}, func(_ uint64, e logmodel.Entry) error {
		t.Fatalf("unknown-template scan yielded %q", e.Statement)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClassifierEnrichment checks that engine fingerprints and verdicts
// attached at compaction time come back from index-only reads.
func TestClassifierEnrichment(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	entries := genEntries(100, 13)
	writeWAL(t, walDir, entries, journal.DefaultSegmentBytes)
	st, err := Open(Options{Dir: filepath.Join(t.TempDir(), "blocks")})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(stmt string) Classification {
		if strings.Contains(stmt, "PhotoObj") {
			return Classification{EngineFP: 777, Verdicts: []string{"stifle"}}
		}
		return Classification{}
	}
	if _, err := st.CompactWALDir(walDir, true, classify); err != nil {
		t.Fatal(err)
	}
	blocks, err := st.Reader().Blocks()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		for _, tmpl := range b.Templates {
			if tmpl.EngineFP == 777 {
				found = true
				if len(tmpl.Verdicts) != 1 || tmpl.Verdicts[0] != "stifle" {
					t.Fatalf("verdicts = %v", tmpl.Verdicts)
				}
				if tmpl.Count == 0 || tmpl.MinTime.After(tmpl.MaxTime) {
					t.Fatalf("bad template index: %+v", tmpl)
				}
			}
		}
	}
	if !found {
		t.Fatal("classified template missing from block index")
	}
	// Engine-FP filtered scans hit the same template.
	got := 0
	err = st.Reader().Scan(ScanOptions{Templates: map[uint64]bool{777: true}}, func(_ uint64, e logmodel.Entry) error {
		if !strings.Contains(e.Statement, "PhotoObj") {
			t.Fatalf("engine-FP filter leaked %q", e.Statement)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("engine-FP filtered scan returned nothing")
	}
}
