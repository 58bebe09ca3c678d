package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"sqlclean"
)

// TestStreamHighWaterBetweenCalls pins -stream's open_sessions_high_water to
// the sessions open between entries: user a's session is still open when
// b's entry arrives ten minutes later, but the eviction that entry triggers
// closes it, so the two sessions are never open together.
func TestStreamHighWaterBetweenCalls(t *testing.T) {
	defer func(old *slog.Logger) { logger = old }(logger)
	logger = slog.New(slog.NewTextHandler(io.Discard, nil))

	t0 := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	var in bytes.Buffer
	if err := sqlclean.WriteLogTSV(&in, sqlclean.Log{
		{Time: t0, User: "a", Statement: "SELECT 1"},
		{Time: t0.Add(10 * time.Minute), User: "b", Statement: "SELECT 2"},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "s.json")
	runStreaming(&in, time.Second, 5*time.Minute, false, false, filepath.Join(dir, "s.tsv"), jsonOut, nil, false)

	blob, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stream sqlclean.StreamStats `json:"stream"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stream.Out != 2 || doc.Stream.SessionsEmitted != 2 {
		t.Fatalf("stream block %+v, want both entries out in two sessions", doc.Stream)
	}
	if hw := doc.Stream.OpenSessionsHighWater; hw != 1 {
		t.Fatalf("open_sessions_high_water = %d, want 1", hw)
	}
}

// TestStreamJSONCountsUsersExactly pins -stream -json's distinct-user count
// to the batch pipeline's on the scale-1 generator log.
func TestStreamJSONCountsUsersExactly(t *testing.T) {
	defer func(old *slog.Logger) { logger = old }(logger)
	logger = slog.New(slog.NewTextHandler(io.Discard, nil))

	log, _ := sqlclean.GenerateWorkload(sqlclean.DefaultWorkloadConfig())
	log.SortStable()
	batch, err := sqlclean.Clean(log, sqlclean.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := sqlclean.WriteLogTSV(&in, log); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "s.json")
	runStreaming(&in, time.Second, 5*time.Minute, false, false, filepath.Join(dir, "s.tsv"), jsonOut, nil, false)

	blob, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sketches sqlclean.StreamSketchJSON `json:"sketches"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Sketches.DistinctUsersEstimate, int64(batch.Report.DistinctUsers); got != want {
		t.Errorf("-stream -json counts %d distinct users, batch %d", got, want)
	}
}

// TestStreamJSONMatchesBatch pins -stream -json to the batch -json of the
// same log on the scale-1 generator logs of seeds 1–3: every template row
// field the engine tracks and every report count. It also pins the
// "stream done" line's solved_away to the queries the batch solvers
// removed.
func TestStreamJSONMatchesBatch(t *testing.T) {
	defer func(old *slog.Logger) { logger = old }(logger)

	for seed := int64(1); seed <= 3; seed++ {
		cfg := sqlclean.DefaultWorkloadConfig()
		cfg.Seed = seed
		log, _ := sqlclean.GenerateWorkload(cfg)
		log.SortStable()
		res, err := sqlclean.Clean(log, sqlclean.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if err := sqlclean.WriteResultJSON(&blob, res, 0); err != nil {
			t.Fatal(err)
		}
		want, err := sqlclean.ReadResultJSON(&blob)
		if err != nil {
			t.Fatal(err)
		}

		var in, logOut bytes.Buffer
		if err := sqlclean.WriteLogTSV(&in, log); err != nil {
			t.Fatal(err)
		}
		logger = slog.New(slog.NewTextHandler(&logOut, nil))
		dir := t.TempDir()
		jsonOut := filepath.Join(dir, "s.json")
		runStreaming(&in, time.Second, 5*time.Minute, false, false, filepath.Join(dir, "s.tsv"), jsonOut, nil, false)
		f, err := os.Open(jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sqlclean.ReadResultJSON(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireDocMatches(t, seed, got, want)

		solved := 0
		for _, s := range res.Report.SolveStats {
			solved += s.QueriesBefore - s.QueriesAfter
		}
		if r := res.Report; solved != r.SizeAfterDedup-r.FinalSize {
			t.Fatalf("seed %d: batch solvers removed %d queries, but size_after_dedup - final_size = %d", seed, solved, r.SizeAfterDedup-r.FinalSize)
		}
		m := regexp.MustCompile(`msg="stream done".* solved_away=(\d+)`).FindStringSubmatch(logOut.String())
		if m == nil {
			t.Fatalf("seed %d: no stream done line with solved_away in:\n%s", seed, logOut.String())
		}
		if got, _ := strconv.Atoi(m[1]); got != solved {
			t.Errorf("seed %d: stream done logs solved_away=%d, batch solvers removed %d", seed, got, solved)
		}
	}
}

// requireDocMatches compares the streaming document's report and template
// rows with the batch export's on every field the engine tracks.
func requireDocMatches(t *testing.T, seed int64, got, want sqlclean.AnalysisDoc) {
	t.Helper()
	counts := func(d sqlclean.AnalysisDoc) [10]int {
		r := d.Report
		return [10]int{r.SizeOriginal, r.CountSelect, r.SizeAfterDedup, r.DuplicatesFound, r.FinalSize,
			r.CountTemplates, r.MaxTemplateFreq, r.SWSTemplates, r.SWSQueries, r.DistinctUsers}
	}
	if g, w := counts(got), counts(want); g != w {
		t.Errorf("seed %d: report counts %v, batch %v", seed, g, w)
	}
	instances := func(d sqlclean.AnalysisDoc) map[string]int {
		m := map[string]int{}
		for _, a := range d.Report.Antipatterns {
			m[a.Kind] = a.Instances
		}
		return m
	}
	if g, w := instances(got), instances(want); !reflect.DeepEqual(g, w) {
		t.Errorf("seed %d: instances per kind %v, batch %v", seed, g, w)
	}
	if len(got.Templates) != len(want.Templates) {
		t.Fatalf("seed %d: %d template rows, batch %d", seed, len(got.Templates), len(want.Templates))
	}
	nonzero := 0
	for i, w := range want.Templates {
		w.Example = ""
		if got.Templates[i] != w {
			t.Errorf("seed %d: template row %d:\n got %+v\nwant %+v", seed, i, got.Templates[i], w)
		}
		if w.DisjointRatio != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Errorf("seed %d: batch has no nonzero disjoint_ratio; the comparison shows nothing", seed)
	}
}
