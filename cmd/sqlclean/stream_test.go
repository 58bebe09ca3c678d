package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
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
