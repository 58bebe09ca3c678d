package parsedlog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqlclean/internal/logmodel"
)

// TestParserReadPathHammer races the hit path (run with -race): a
// pre-warmed parser serves lookups while other goroutines keep publishing
// fresh statements into the same sets. Every lookup must return the warm
// statement's text and summary; whether it shares the cached instances
// depends on whether the statement is still cached.
func TestParserReadPathHammer(t *testing.T) {
	const goroutines = 16
	const warm = 200

	p := NewParser()
	warmed := make(map[string]Entry, warm)
	for i := 0; i < warm; i++ {
		s := soupStatement(i)
		warmed[s] = p.ParseEntry(logmodel.Entry{Statement: s})
	}

	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2000; k++ {
				if g%4 == 0 && k%5 == 0 {
					// Writer goroutines keep publishing while readers are
					// mid-lookup.
					s := soupStatement(warm + g*2000 + k)
					p.ParseEntry(logmodel.Entry{Statement: s})
					continue
				}
				// A fresh string allocation with the warm content.
				s := string([]byte(soupStatement(k % warm)))
				e := p.ParseEntry(logmodel.Entry{Statement: s})
				want := warmed[soupStatement(k%warm)]
				if e.Statement != want.Statement || e.Class != want.Class || !reflect.DeepEqual(e.Info, want.Info) {
					t.Errorf("goroutine %d: %q parsed to %+v, warm parse %+v", g, s, e, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadSnapshotPromotion checks that cached results are stable: after
// 1000 inserts spread over the sets, re-parsing each statement from a fresh
// string returns a summary equal to the first pass's, and a hit returns the
// cached instances.
func TestReadSnapshotPromotion(t *testing.T) {
	p, reg := instrumented()
	stmts := make([]string, 1000)
	first := make([]Entry, len(stmts))
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		first[i] = p.ParseEntry(logmodel.Entry{Statement: stmts[i]})
	}
	for i, s := range stmts {
		hits := reg.Counter("parse_cache_hits_total").Value()
		e := p.ParseEntry(logmodel.Entry{Statement: string([]byte(s))})
		if e.Statement != s || !reflect.DeepEqual(e.Info, first[i].Info) {
			t.Fatalf("%q: summary %+v, first pass %+v", s, e.Info, first[i].Info)
		}
		if reg.Counter("parse_cache_hits_total").Value() > hits && e.Info != first[i].Info {
			t.Fatalf("%q: a hit returned a summary other than the cached one", s)
		}
	}
}
