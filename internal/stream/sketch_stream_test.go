package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/pattern"
	"sqlclean/internal/workload"
)

// TestShardedSketchSnapshotRoundTrip is the durability property for the
// template table and the user sets: cut a sharded stream mid-flight,
// snapshot, restore into a fresh engine, finish — the distinct-user count,
// the templates (with their distinct WHERE clauses) and the SWS verdicts
// must equal the uninterrupted run's, at 1 and 4 workers, and
// re-snapshotting immediately after restore must reproduce the decoded
// snapshot.
func TestShardedSketchSnapshotRoundTrip(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.1))
	log.SortStable()
	for i := range log {
		log[i].Seq = int64(i)
	}
	opt := pattern.SWSOptions{FrequencyPct: 0.01, MaxUserPopularity: 12, MinDisjointRatio: 0.9}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := ShardedConfig{Shards: 8, Workers: workers}

			run := func(cut int) *Sharded {
				eng := NewSharded(cfg)
				for i, e := range log {
					if i == cut {
						blob, err := json.Marshal(eng.Snapshot())
						if err != nil {
							t.Fatal(err)
						}
						var decoded ShardedSnapshot
						if err := json.Unmarshal(blob, &decoded); err != nil {
							t.Fatal(err)
						}
						eng = NewSharded(cfg)
						if err := eng.Restore(decoded); err != nil {
							t.Fatal(err)
						}
						// Restore must be lossless: a snapshot taken right
						// now reproduces the decoded one, user lists included.
						if again := eng.Snapshot(); !reflect.DeepEqual(again, decoded) {
							t.Fatal("re-snapshot after restore differs from the restored snapshot")
						}
					}
					if _, err := eng.Add(e); err != nil {
						t.Fatal(err)
					}
				}
				eng.Close()
				return eng
			}

			want := run(-1)
			wantSWS := pattern.ClassifySWS(want.Templates(), want.Stats().Selects, opt)
			if want.DistinctUsers() == 0 || len(wantSWS) == 0 {
				t.Fatal("uninterrupted run counted no user or no SWS template; the round trip proves nothing")
			}
			got := run(len(log) / 2)
			if g, w := got.DistinctUsers(), want.DistinctUsers(); g != w {
				t.Errorf("%d distinct users across the snapshot cut, %d uninterrupted", g, w)
			}
			if !reflect.DeepEqual(got.Templates(), want.Templates()) {
				t.Error("templates diverged across the snapshot cut")
			}
			if !reflect.DeepEqual(pattern.ClassifySWS(got.Templates(), got.Stats().Selects, opt), wantSWS) {
				t.Error("SWS classification diverged across the snapshot cut")
			}
		})
	}
}

// TestRestoreUserSet pins the restore rule for the user set: a shard's
// users are its snapshot's users list ∪ its template rows' users ∪ its open
// sessions' users. A list holding a user that routes to another shard is
// refused, because DistinctUsers sums the shards' sets.
func TestRestoreUserSet(t *testing.T) {
	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	p := serial(Config{})
	for i, e := range []logmodel.Entry{
		{User: "sel", Statement: "SELECT name FROM Employees WHERE id = 1"},
		{User: "exec", Statement: "EXEC spGetNeighbors 12345"},
	} {
		e.Time = base.Add(time.Duration(i) * time.Second)
		if _, err := p.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Snapshot()
	if got := snap.Procs[0].Users; !reflect.DeepEqual(got, []string{"exec", "sel"}) {
		t.Fatalf("snapshot users %q, want both users sorted", got)
	}

	// Without the list, only the template rows and the open sessions name
	// users: the user who sent only EXEC is gone.
	noList := p.Snapshot()
	noList.Procs[0].Users = nil
	q := serial(Config{})
	if err := q.Restore(noList); err != nil {
		t.Fatal(err)
	}
	if got := q.DistinctUsers(); got != 1 {
		t.Errorf("restored %d users from the rows and sessions, want 1", got)
	}
	// The rows' and sessions' users are added to the list's.
	noList.Procs[0].Users = []string{"other"}
	noList.Procs[0].Templates[0].Users = []string{"row"}
	if err := q.Restore(noList); err != nil {
		t.Fatal(err)
	}
	if got := q.Snapshot().Procs[0].Users; !reflect.DeepEqual(got, []string{"other", "row", "sel"}) {
		t.Errorf("restored users %q, want the list's, the row's and the session's", got)
	}

	two := NewSharded(ShardedConfig{Shards: 2})
	wrong := two.Snapshot()
	u := "alice"
	wrong.Procs[1-two.ShardFor(u)].Users = []string{u}
	if err := two.Restore(wrong); err == nil || !strings.Contains(err.Error(), "routes to shard") {
		t.Errorf("Restore of a user on the wrong shard: err %v", err)
	}
}

// parentFixtureLog is the log behind testdata/parent-shard-snapshot.json, a
// one-shard snapshot taken after its first parentFixtureCut entries by the
// engine that kept per-template SWS evidence beside the template table. The
// fixture is that engine's output with its HLL cut to precision 4, its
// evidence split into a base and an event-time window, and a "top" block
// added, as older versions of the encoding wrote them. The bot's and
// alice's first sessions closed before the cut, so their WHERE clauses are
// in the evidence; the bot's second session and carol's are open at the
// cut, and objid 99, 4 and 5 appear in no closed session, so only the open
// sessions can restore them.
func parentFixtureLog() logmodel.Log {
	t0 := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	obj := func(id int) string { return fmt.Sprintf("SELECT ra, dec FROM PhotoObj WHERE objid = %d", id) }
	box := func(lo int) string {
		return fmt.Sprintf("SELECT objid FROM PhotoObj WHERE ra BETWEEN %d AND %d", lo, lo+1)
	}
	l := logmodel.Log{
		{Time: at(0), User: "bot", Statement: obj(1)},
		{Time: at(2), User: "bot", Statement: obj(2)},
		{Time: at(4), User: "bot", Statement: obj(3)},
		{Time: at(10), User: "alice", Statement: box(10)},
		{Time: at(20), User: "alice", Statement: box(20)},
		{Time: at(600), User: "bot", Statement: obj(4)},
		{Time: at(602), User: "bot", Statement: obj(5)},
		{Time: at(604), User: "carol", Statement: obj(99)},
		{Time: at(606), User: "bot", Statement: obj(6)},
		{Time: at(1200), User: "alice", Statement: box(10)},
	}
	for i := range l {
		l[i].Seq = int64(i)
	}
	return l
}

const parentFixtureCut = 8

func readParentFixture(t testing.TB) ShardedSnapshot {
	blob, err := os.ReadFile("testdata/parent-shard-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap ShardedSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoresParentSnapshot restores a snapshot in the encoding that kept
// SWS evidence beside the template table: finishing the feed must give the
// uninterrupted run's templates, distinct WHERE clauses included, and its
// SWS verdicts. The evidence's base, its window and the open sessions each
// hold WHERE clauses the others lack, so dropping any of the three folds
// fails the comparison. Evidence for a template with no row is refused.
func TestRestoresParentSnapshot(t *testing.T) {
	log := parentFixtureLog()
	want := serial(Config{})
	for _, e := range log {
		if _, err := want.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	want.Close()

	snap := readParentFixture(t)
	got := serial(Config{})
	if err := got.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, e := range log[parentFixtureCut:] {
		if _, err := got.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	got.Close()
	if !reflect.DeepEqual(got.Templates(), want.Templates()) {
		t.Errorf("templates after restore %+v, uninterrupted %+v", got.Templates(), want.Templates())
	}
	// Every user of the fixture's log sent a SELECT before the cut, so the
	// rows and sessions restore them all.
	if g, w := got.DistinctUsers(), want.DistinctUsers(); g != w {
		t.Errorf("%d distinct users after restore, uninterrupted %d", g, w)
	}
	for _, opt := range []pattern.SWSOptions{
		pattern.DefaultSWSOptions(),
		{FrequencyPct: 1, MaxUserPopularity: 2, MinDisjointRatio: 0.9},
	} {
		g := pattern.ClassifySWS(got.Templates(), got.Stats().Selects, opt)
		w := pattern.ClassifySWS(want.Templates(), want.Stats().Selects, opt)
		if len(w) == 0 || !reflect.DeepEqual(g, w) {
			t.Errorf("opt %+v: SWS after restore %v, uninterrupted %v", opt, g, w)
		}
	}

	orphan := readParentFixture(t)
	sh := &orphan.Procs[0]
	for i, row := range sh.Templates {
		if row.Fingerprint == sh.Sketches.SWS.Base[0].Fingerprint {
			sh.Templates = append(sh.Templates[:i], sh.Templates[i+1:]...)
			sh.Open = nil // its open-session entries have no row either
			break
		}
	}
	if err := serial(Config{}).Restore(orphan); err == nil || !strings.Contains(err.Error(), "no row") {
		t.Errorf("Restore of evidence for a template with no row: err %v", err)
	}
}

// hllFixtureLog is the log behind testdata/hll-shard-snapshot.json, a
// one-shard snapshot taken after its first hllFixtureCut entries by the last
// engine that counted users with a HyperLogLog: the snapshot has open
// sessions and that engine's HLL, and no users list. Before the cut dave
// sends only an EXEC and erin only a CREATE TABLE, so no template row or
// open session names them; erin sends a SELECT after the cut, dave never
// does.
func hllFixtureLog() logmodel.Log {
	t0 := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	obj := func(id int) string { return fmt.Sprintf("SELECT ra, dec FROM PhotoObj WHERE objid = %d", id) }
	l := logmodel.Log{
		{Time: at(0), User: "bot", Statement: obj(1)},
		{Time: at(2), User: "bot", Statement: obj(2)},
		{Time: at(4), User: "bot", Statement: obj(3)},
		{Time: at(6), User: "dave", Statement: "EXEC spGetNeighbors 12345"},
		{Time: at(10), User: "alice", Statement: "SELECT objid FROM PhotoObj WHERE ra BETWEEN 10 AND 11"},
		{Time: at(30), User: "erin", Statement: "CREATE TABLE #results (objid bigint)"},
		{Time: at(600), User: "bot", Statement: obj(4)},
		{Time: at(602), User: "bot", Statement: obj(5)},
		{Time: at(604), User: "carol", Statement: obj(99)},
		{Time: at(606), User: "bot", Statement: obj(6)},
		{Time: at(700), User: "erin", Statement: obj(7)},
		{Time: at(1200), User: "alice", Statement: "SELECT objid FROM PhotoObj WHERE ra BETWEEN 20 AND 21"},
	}
	for i := range l {
		l[i].Seq = int64(i)
	}
	return l
}

const hllFixtureCut = 9

// TestRestoresHLLSnapshot restores a snapshot written while users were
// counted by an HLL. Finishing the feed must give the uninterrupted run's
// counters and templates, and its distinct-user count short by exactly the
// users the cut hides: those that sent only non-SELECTs before it and
// nothing after (dave). Erin is counted again by her SELECT after the cut.
func TestRestoresHLLSnapshot(t *testing.T) {
	log := hllFixtureLog()
	want := serial(Config{})
	for _, e := range log {
		if _, err := want.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	want.Close()

	blob, err := os.ReadFile("testdata/hll-shard-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap ShardedSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Procs[0].Open) == 0 || snap.Procs[0].Users != nil || !strings.Contains(string(blob), `"hll"`) {
		t.Fatal("fixture lacks open sessions or an HLL, or has a users list")
	}
	got := serial(Config{})
	if err := got.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if u := got.Snapshot().Procs[0].Users; !reflect.DeepEqual(u, []string{"alice", "bot", "carol"}) {
		t.Errorf("restored users %q, want the SELECT users before the cut", u)
	}
	for _, e := range log[hllFixtureCut:] {
		if _, err := got.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	got.Close()
	gs, ws := got.Stats(), want.Stats()
	gs.OpenSessionsHighWater, ws.OpenSessionsHighWater = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("stats after restore %+v, uninterrupted %+v", gs, ws)
	}
	if !reflect.DeepEqual(got.Templates(), want.Templates()) {
		t.Errorf("templates after restore %+v, uninterrupted %+v", got.Templates(), want.Templates())
	}
	const hidden = 1 // dave
	if g, w := got.DistinctUsers(), want.DistinctUsers(); g != w-hidden {
		t.Errorf("%d distinct users after restore, want the uninterrupted %d less the %d hidden", g, w, hidden)
	}
}

// TestRestoreRefusesNonSelectSession: the engine only puts accepted SELECTs
// into sessions, so a snapshot whose open session holds anything else is
// refused rather than detected, solved and emitted.
func TestRestoreRefusesNonSelectSession(t *testing.T) {
	p := serial(Config{})
	for _, e := range parentFixtureLog()[:parentFixtureCut] {
		if _, err := p.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Snapshot()
	if len(snap.Procs[0].Open) == 0 {
		t.Fatal("no open session to corrupt")
	}
	snap.Procs[0].Open[0].Entries[0].Statement = "DROP TABLE x"
	if err := serial(Config{}).Restore(snap); err == nil || !strings.Contains(err.Error(), "not a SELECT") {
		t.Fatalf("Restore of a session holding DROP TABLE: err %v", err)
	}
}
