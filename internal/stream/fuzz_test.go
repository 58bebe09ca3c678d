package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/schema"
)

// FuzzShardedRestore feeds arbitrary bytes to the engine's snapshot decoder,
// as a daemon reads them from its data directory. Whatever a one-shard
// engine's Restore accepts must be safe to read, snapshot and close, and its
// re-snapshot must be a fixed point: snapshot → JSON → Restore → snapshot
// gives the same value again.
func FuzzShardedRestore(f *testing.F) {
	parser, catalog := parsedlog.NewParser(), schema.SkyServer()
	engine := func() *Sharded { return serial(Config{Parser: parser, Catalog: catalog}) }

	// A live snapshot with open sessions, closed ones, verdicts and a users
	// list, and the same with a session the engine could not have written.
	live := engine()
	for _, e := range parentFixtureLog()[:parentFixtureCut] {
		if _, err := live.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	liveSnap := live.Snapshot()
	dropTable := live.Snapshot()
	dropTable.Procs[0].Open[0].Entries[0].Statement = "DROP TABLE x"
	for _, snap := range []ShardedSnapshot{liveSnap, dropTable} {
		blob, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// The fixtures as written, minus the indentation: one with SWS evidence
	// (its counts, user sets and window bounds), a top block and an HLL cut
	// to precision 4, and one with the full HLL and no users list.
	for _, name := range []string{"parent-shard-snapshot.json", "hll-shard-snapshot.json"} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		var fixture bytes.Buffer
		if err := json.Compact(&fixture, blob); err != nil {
			f.Fatal(err)
		}
		f.Add(fixture.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap ShardedSnapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		eng := engine()
		if eng.Restore(snap) != nil {
			return
		}
		pattern.ClassifySWS(eng.Templates(), eng.Stats().Selects, pattern.DefaultSWSOptions())
		eng.DistinctUsers()
		first := eng.Snapshot()
		blob, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		var decoded ShardedSnapshot
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		again := engine()
		if err := again.Restore(decoded); err != nil {
			t.Fatalf("restore refused its own re-snapshot: %v", err)
		}
		if !reflect.DeepEqual(again.Snapshot(), first) {
			t.Fatalf("re-snapshot is not a fixed point:\n%s", blob)
		}
		eng.Close()
	})
}
