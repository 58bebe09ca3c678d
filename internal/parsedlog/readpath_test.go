package parsedlog

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"sqlclean/internal/logmodel"
)

// TestParserReadPathHammer races the hit path (run with -race): a
// pre-warmed parser serves hits while other goroutines keep inserting fresh
// statements into the same shard maps. Every hit must return the interned
// first-seen statement string (same backing array, not just equal content).
func TestParserReadPathHammer(t *testing.T) {
	const goroutines = 16
	const warm = 200

	p := NewParser()
	interned := make(map[string]string, warm)
	for i := 0; i < warm; i++ {
		s := soupStatement(i)
		e := p.ParseEntry(logmodel.Entry{Statement: s})
		interned[s] = e.Statement
	}

	strData := func(s string) *byte { return unsafe.StringData(s) }

	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2000; k++ {
				if g%4 == 0 && k%5 == 0 {
					// Writer goroutines keep the shard maps growing while
					// readers are mid-lookup.
					s := soupStatement(warm + g*2000 + k)
					p.ParseEntry(logmodel.Entry{Statement: s})
					continue
				}
				// Force a fresh string allocation with the warm content, so a
				// pointer match below can only come from interning.
				s := string([]byte(soupStatement(k % warm)))
				e := p.ParseEntry(logmodel.Entry{Statement: s})
				want := interned[soupStatement(k%warm)]
				if e.Statement != want {
					t.Errorf("goroutine %d: statement content diverged", g)
					return
				}
				if strData(e.Statement) != strData(want) {
					t.Errorf("goroutine %d: statement %q not interned (different backing array)", g, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIntern pins the canonical-instance contract: Intern returns the same
// backing string for equal content, including for statements that were never
// parsed, and ParseEntry carries that instance on its entries.
func TestIntern(t *testing.T) {
	p := NewParser()
	a := p.Intern("SELECT a FROM t")
	b := p.Intern(string([]byte("SELECT a FROM t")))
	if a != b {
		t.Fatalf("Intern content mismatch: %q vs %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("Intern returned two different backing arrays for equal content")
	}
	e := p.ParseEntry(logmodel.Entry{Statement: string([]byte("SELECT a FROM t"))})
	if unsafe.StringData(e.Statement) != unsafe.StringData(a) {
		t.Fatal("ParseEntry did not return the interned statement instance")
	}
}

// TestReadSnapshotPromotion checks that cache slots are stable: after 1000
// inserts spread over every shard, re-parsing each statement returns the
// same interned instance and Info as the first pass.
func TestReadSnapshotPromotion(t *testing.T) {
	p := NewParser()
	stmts := make([]string, 1000)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		p.ParseEntry(logmodel.Entry{Statement: stmts[i]})
	}
	for _, s := range stmts {
		e1 := p.ParseEntry(logmodel.Entry{Statement: s})
		e2 := p.ParseEntry(logmodel.Entry{Statement: string([]byte(s))})
		if e1.Info != e2.Info || unsafe.StringData(e1.Statement) != unsafe.StringData(e2.Statement) {
			t.Fatalf("slot for %q not stable across inserts", s)
		}
	}
}
