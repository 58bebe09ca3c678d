package parsedlog

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
)

// statement soup with deliberate overlap between goroutines: a mix of
// SELECTs, DML, DDL and broken statements so every class crosses the cache.
func soupStatement(i int) string {
	switch i % 6 {
	case 0:
		return fmt.Sprintf("SELECT a FROM t WHERE id = %d", i%17)
	case 1:
		return fmt.Sprintf("SELECT a, b FROM photoprimary WHERE objid = %d", i%11)
	case 2:
		return "SELECT x FROM t WHERE y = NULL"
	case 3:
		return fmt.Sprintf("INSERT INTO t VALUES (%d)", i%7)
	case 4:
		return fmt.Sprintf("CREATE TABLE t%d (a int)", i%5)
	default:
		return fmt.Sprintf("SELECT a FROM WHERE %d", i%3) // broken
	}
}

// TestParserConcurrentHammer drives one Parser from 16 goroutines with
// overlapping statement sets (run with -race). Every goroutine must see the
// same classification and summary as a serial reference parse. Goroutines
// that miss on one text at once may each parse it, so sharing an Info is
// not required.
func TestParserConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 300

	// Serial reference.
	ref := map[string]Entry{}
	refParser := NewParser()
	for i := 0; i < perG; i++ {
		s := soupStatement(i)
		ref[s] = refParser.ParseEntry(logmodel.Entry{Statement: s})
	}

	p := NewParser()
	results := make([]map[string]Entry, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			got := map[string]Entry{}
			// Each goroutine walks the soup from a different offset so the
			// same texts are requested in different orders, racing on the
			// cache slots.
			for k := 0; k < perG; k++ {
				s := soupStatement((k + g*7) % perG)
				got[s] = p.ParseEntry(logmodel.Entry{Statement: s})
			}
			results[g] = got
		}(g)
	}
	wg.Wait()

	for g, got := range results {
		if len(got) != len(ref) {
			t.Fatalf("goroutine %d saw %d unique statements, want %d", g, len(got), len(ref))
		}
		for s, e := range got {
			want := ref[s]
			if e.Class != want.Class {
				t.Fatalf("goroutine %d: class mismatch for %q: %v != %v", g, s, e.Class, want.Class)
			}
			if (e.Err == nil) != (want.Err == nil) {
				t.Fatalf("goroutine %d: error mismatch for %q", g, s)
			}
			if !reflect.DeepEqual(e.Info, want.Info) {
				t.Fatalf("goroutine %d: summary mismatch for %q", g, s)
			}
		}
	}
}

// TestParseParallelMatchesSerial checks ParseParallel returns the serial
// result (order, stats, summaries) for several worker counts.
func TestParseParallelMatchesSerial(t *testing.T) {
	var l logmodel.Log
	for i := 0; i < 500; i++ {
		l = append(l, logmodel.Entry{Seq: int64(i), Statement: soupStatement(i)})
	}
	want, wantStats := Parse(l)
	for _, workers := range []int{2, 4, 8} {
		got, gotStats := ParseParallel(l, workers)
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Class != want[i].Class || got[i].Statement != want[i].Statement {
				t.Fatalf("workers=%d: entry %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
			// Identical texts carry equal summaries, shared or not.
			if !reflect.DeepEqual(got[i].Info, want[i].Info) {
				t.Fatalf("workers=%d: entry %d summary differs", workers, i)
			}
		}
	}
}

// TestCacheReplacementUnderLoad has goroutines parse far more distinct
// texts than a small cache has slots (run with -race), so publishes keep
// pushing results out of sets that others are reading. Every returned entry
// must equal a fresh parse of its own text, and the metrics must account
// for every publish: a miss either fills an empty slot or pushes a result
// out, and parse_cache_bytes is the text the slots hold.
func TestCacheReplacementUnderLoad(t *testing.T) {
	const goroutines = 8
	const distinct = 600
	stmts := make([]string, distinct)
	want := make([]Entry, distinct)
	for i := range stmts {
		switch i % 4 {
		case 0:
			stmts[i] = fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		case 1:
			stmts[i] = fmt.Sprintf("SELECT a, b FROM photoprimary WHERE objid = %d AND ra > %d", i, i%7)
		case 2:
			stmts[i] = fmt.Sprintf("INSERT INTO t VALUES (%d)", i)
		default:
			stmts[i] = fmt.Sprintf("SELECT a FROM WHERE %d", i) // broken
		}
		want[i] = newParser(0).ParseEntry(logmodel.Entry{Statement: stmts[i]})
	}
	p := newParser(2) // 4 sets of 4 ways: 16 slots
	reg := obs.NewRegistry()
	p.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*distinct; k++ {
				i := (k*(g+1) + g*97) % distinct
				e := p.ParseEntry(logmodel.Entry{Seq: int64(k), Statement: stmts[i]})
				w := want[i]
				if e.Statement != stmts[i] || e.Seq != int64(k) || e.Class != w.Class ||
					(e.Err == nil) != (w.Err == nil) || !reflect.DeepEqual(e.Info, w.Info) {
					t.Errorf("goroutine %d: %q parsed to %+v, fresh parse %+v", g, stmts[i], e, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var held, text int64
	for i := range p.sets {
		for w := range p.sets[i] {
			if r := p.sets[i][w].Load(); r != nil {
				held++
				text += int64(len(r.info.Statement))
			}
		}
	}
	misses, replaced := reg.Counter("parse_cache_misses_total").Value(), reg.Counter("parse_cache_replaced_total").Value()
	if misses != held+replaced {
		t.Errorf("%d misses, but %d slots filled and %d results pushed out", misses, held, replaced)
	}
	if got := reg.Gauge("parse_cache_bytes").Value(); got != text {
		t.Errorf("parse_cache_bytes %d, slots hold %d bytes of text", got, text)
	}
	if replaced == 0 {
		t.Error("no result was pushed out: the test exercises nothing")
	}
}

// TestLongStatementsNotCached checks that a statement longer than
// maxCachedLen is parsed, with the summary a cached one would have, but
// never kept: each parse is a miss and the cache holds no text.
func TestLongStatementsNotCached(t *testing.T) {
	long := "SELECT a FROM t WHERE id = 1 AND name = '" + strings.Repeat("x", maxCachedLen) + "'"
	p, reg := instrumented()
	e1 := p.ParseEntry(logmodel.Entry{Statement: long})
	e2 := p.ParseEntry(logmodel.Entry{Statement: long})
	if e1.Info == nil || !reflect.DeepEqual(e1.Info, e2.Info) || e1.Info == e2.Info {
		t.Fatalf("long statement: summaries %+v and %+v, want equal and unshared", e1.Info, e2.Info)
	}
	if misses, bytes := reg.Counter("parse_cache_misses_total").Value(), reg.Gauge("parse_cache_bytes").Value(); misses != 2 || bytes != 0 {
		t.Fatalf("%d misses and %d cached bytes, want 2 and 0", misses, bytes)
	}
}

// TestSelectsRawMatchesSelectsRaw pins SelectsRaw to the two-step spelling.
func TestSelectsRawMatchesSelectsRaw(t *testing.T) {
	l := mkLog("SELECT a FROM t", "DROP TABLE t", "SELECT b FROM t", "bogus (")
	pl, _ := Parse(l)
	want := pl.Selects().Raw()
	got := pl.SelectsRaw()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectsRaw = %+v, want %+v", got, want)
	}
}

// TestSubset checks index-based carry-through.
func TestSubset(t *testing.T) {
	l := mkLog("SELECT a FROM t", "SELECT b FROM t", "SELECT c FROM t")
	pl, _ := Parse(l)
	sub := pl.Subset([]int{2, 0})
	if len(sub) != 2 || sub[0].Statement != "SELECT c FROM t" || sub[1].Statement != "SELECT a FROM t" {
		t.Fatalf("subset: %+v", sub)
	}
	if sub[0].Info != pl[2].Info {
		t.Fatal("subset must share parse results")
	}
}
