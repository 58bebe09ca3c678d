#!/usr/bin/env bash
# End-to-end smoke of the sqlcleand ingestion daemon: start it, ingest a
# generated log over HTTP, assert /healthz is OK and /report is non-empty,
# then drain gracefully. A second phase checks crash durability: SIGKILL the
# daemon mid-feed, restart it on the same -data-dir (journal replay), finish
# the feed, and require the /report counts — sessions and cleaned entries
# included — to equal an uninterrupted run's; restarted on the uninterrupted
# run's drained snapshot, the daemon's /report must mark as many templates
# antipattern as the batch -json. A third phase drives the
# closed-loop replay harness (loggen -replay) against the daemon for a few
# seconds, requires its bench-text/JSON output to round-trip through
# `benchjson -compare`, and asserts GET /clusters returns a non-empty
# clustering, /debug/requests holds completed traces, and the JSON log
# carries slow-request lines with trace IDs. A fourth phase compacts the
# journal into columnar blocks, requires their scan to give back the ingested
# lines byte for byte, and serves GET /history from them. The last phase
# runs the CLI's streaming path: `sqlclean -stream` must write the same lines
# as the batch `sqlclean -clean`, and its -json must count the lines it wrote
# and the batch -json's distinct users, antipattern templates and SWS
# templates. Run via `make smoke` (which builds bin/ first).
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-./bin/sqlcleand}
ADDR=${ADDR:-127.0.0.1:18321}
TMP=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go run ./cmd/loggen -scale 0.2 -o "$TMP/log.tsv"

"$BIN" -addr "$ADDR" -clean "$TMP/clean.tsv" 2>"$TMP/daemon.log" &
PID=$!

# Wait for the daemon to listen.
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke: daemon died:" >&2; cat "$TMP/daemon.log" >&2; exit 1
  fi
  sleep 0.1
done

curl -sf -X POST --data-binary "@$TMP/log.tsv" \
  "http://$ADDR/ingest?format=tsv" >"$TMP/ingest.json"
grep -q '"accepted": *[1-9]' "$TMP/ingest.json" || {
  echo "smoke: ingest accepted nothing:" >&2; cat "$TMP/ingest.json" >&2; exit 1
}

curl -sf "http://$ADDR/healthz" >"$TMP/healthz.json"
grep -q '"status": *"ok"' "$TMP/healthz.json" || {
  echo "smoke: healthz not ok:" >&2; cat "$TMP/healthz.json" >&2; exit 1
}

curl -sf "http://$ADDR/report" >"$TMP/report.json"
grep -q '"size_original": *[1-9]' "$TMP/report.json" || {
  echo "smoke: report empty:" >&2; cat "$TMP/report.json" >&2; exit 1
}

# The status page must render in both shapes.
curl -sf "http://$ADDR/statusz" >"$TMP/statusz.html"
grep -q '<h1>sqlcleand' "$TMP/statusz.html" || {
  echo "smoke: /statusz did not render:" >&2; head "$TMP/statusz.html" >&2; exit 1
}
curl -sf "http://$ADDR/statusz?format=text" >"$TMP/statusz.txt"
grep -q 'sqlcleand status: ok' "$TMP/statusz.txt" || {
  echo "smoke: /statusz?format=text did not render:" >&2; cat "$TMP/statusz.txt" >&2; exit 1
}

# Buffer /metrics to a file: piping into grep -q under pipefail is racy —
# grep exits at the first match and curl's SIGPIPE fails the pipeline.
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
grep -q ingest_accepted_total "$TMP/metrics.txt" || {
  echo "smoke: /metrics missing ingest counters" >&2; exit 1
}

# Graceful drain: SIGTERM, wait, check the cleaned log was flushed.
kill -TERM "$PID"
wait "$PID"
[ -s "$TMP/clean.tsv" ] || { echo "smoke: drain wrote no cleaned entries" >&2; exit 1; }

echo "smoke: ok ($(wc -l <"$TMP/log.tsv") in, $(wc -l <"$TMP/clean.tsv") cleaned)"

# ---------------------------------------------------------------------------
# Crash durability: acknowledged entries must survive a SIGKILL. Replay gives
# every shard its entries in the order its queue did, and sessions close on
# their own shard's clock, so once the feed is applied the counts — sessions
# emitted, cleaned entries and solved queries included — must equal the
# uninterrupted run's.
# ---------------------------------------------------------------------------

TOTAL=$(wc -l <"$TMP/log.tsv")
HALF=$((TOTAL / 2))
head -n "$HALF" "$TMP/log.tsv" >"$TMP/log1.tsv"
tail -n +"$((HALF + 1))" "$TMP/log.tsv" >"$TMP/log2.tsv"

start_daemon() { # $1 data dir, $2 daemon log
  "$BIN" -addr "$ADDR" -data-dir "$1" 2>>"$2" &
  PID=$!
  for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$PID" 2>/dev/null; then
      echo "smoke: daemon died:" >&2; cat "$2" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "smoke: daemon never listened" >&2; exit 1
}

ingest_tsv() { # $1 file
  curl -sf -X POST --data-binary "@$1" "http://$ADDR/ingest?format=tsv" >/dev/null
}

wait_applied() { # $1 expected entries_in
  for i in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" >"$TMP/h.json" 2>/dev/null || true
    if grep -q "\"entries_in\": *$1," "$TMP/h.json" &&
       grep -q '"queue_depth": *0,' "$TMP/h.json"; then return 0; fi
    sleep 0.1
  done
  echo "smoke: daemon never converged to $1 applied entries:" >&2
  cat "$TMP/h.json" >&2; exit 1
}

report_counts() { # $1 out file
  curl -sf "http://$ADDR/report" | grep -oE \
    '"(size_original|count_select|size_after_dedup|duplicates_found|final_size|count_templates|max_template_frequency|sessions_emitted|solved_queries)": *[0-9]+' \
    >"$1"
}

# Uninterrupted reference run.
start_daemon "$TMP/data-ref" "$TMP/ref.log"
ingest_tsv "$TMP/log.tsv"
wait_applied "$TOTAL"
report_counts "$TMP/report-ref.txt"
kill -TERM "$PID"
wait "$PID"

# Crash run: half the feed, SIGKILL (no drain, no snapshot), restart on the
# same directory, finish the feed.
start_daemon "$TMP/data" "$TMP/crash.log"
ingest_tsv "$TMP/log1.tsv"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

start_daemon "$TMP/data" "$TMP/crash.log"
# The restart's structured "durability enabled" line carries the replay count.
grep -q "replayed=$HALF" "$TMP/crash.log" || {
  echo "smoke: restart did not replay the $HALF journaled entries:" >&2
  cat "$TMP/crash.log" >&2; exit 1
}
ingest_tsv "$TMP/log2.tsv"
wait_applied "$TOTAL"
report_counts "$TMP/report-crash.txt"
kill -TERM "$PID"
wait "$PID"

diff "$TMP/report-ref.txt" "$TMP/report-crash.txt" >&2 || {
  echo "smoke: crash-recovered report diverged from the uninterrupted run" >&2
  exit 1
}

echo "smoke: crash recovery ok (SIGKILL after $HALF entries, replayed and converged at $TOTAL)"

# The uninterrupted run drained on SIGTERM and wrote its final snapshot, so a
# daemon restarted on its directory serves the drained engine's /report. It
# must mark as many templates antipattern as the batch -json of the same log.
CLI=${CLI:-./bin/sqlclean}
"$CLI" -clean "$TMP/b.tsv" -json "$TMP/b.json" "$TMP/log.tsv" >"$TMP/batch.txt" 2>"$TMP/batch.log"
B_ANTI=$(grep -c '"antipattern": true' "$TMP/b.json" || true)
start_daemon "$TMP/data-ref" "$TMP/ref.log"
curl -sf "http://$ADDR/report?top=1000000" >"$TMP/report-drained.json"
kill -TERM "$PID"
wait "$PID"
D_ANTI=$(grep -c '"antipattern": true' "$TMP/report-drained.json" || true)
[ "$B_ANTI" -gt 0 ] && [ "$D_ANTI" -eq "$B_ANTI" ] || {
  echo "smoke: drained /report marks $D_ANTI templates antipattern, batch -json $B_ANTI" >&2; exit 1
}

echo "smoke: drained report ok ($D_ANTI antipattern templates, the same as batch)"

# ---------------------------------------------------------------------------
# Replay load harness + /clusters: drive the daemon with loggen's closed-loop
# replay mode for 5 seconds, require the harness to finish (preflight, load,
# drain) and its results to round-trip through `benchjson -compare` (the
# bench-text lines on stdout against the -bench-out JSON it wrote — byte-level
# proof both outputs speak benchjson's schema), then require a non-empty
# overlap clustering of the predicate boxes the run produced.
# ---------------------------------------------------------------------------

# JSON logs plus a 1µs slow-request threshold: every replayed request must
# produce a machine-readable slow-request line carrying its trace ID.
"$BIN" -addr "$ADDR" -log-format json -slow-request 1us 2>"$TMP/replay-daemon.log" &
PID=$!
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke: daemon died:" >&2; cat "$TMP/replay-daemon.log" >&2; exit 1
  fi
  sleep 0.1
done

go run ./cmd/loggen -replay "$ADDR" -scale 0.2 -clients 4 -rate 3000 \
  -duration 5s -bench-out "$TMP/replay.json" >"$TMP/replay.txt" || {
  echo "smoke: replay harness failed:" >&2; cat "$TMP/replay-daemon.log" >&2; exit 1
}
grep -q 'BenchmarkReplayIngestP99' "$TMP/replay.txt" || {
  echo "smoke: replay emitted no p99 line:" >&2; cat "$TMP/replay.txt" >&2; exit 1
}
grep -q 'BenchmarkReplayDrain' "$TMP/replay.txt" || {
  echo "smoke: replay emitted no drain line:" >&2; cat "$TMP/replay.txt" >&2; exit 1
}
go run ./cmd/benchjson -compare "$TMP/replay.json" <"$TMP/replay.txt" >/dev/null || {
  echo "smoke: benchjson -compare rejected the replay harness output" >&2; exit 1
}

curl -sf "http://$ADDR/clusters?top=5" >"$TMP/clusters.json"
grep -q '"cluster_count": *[1-9]' "$TMP/clusters.json" || {
  echo "smoke: /clusters returned an empty clustering:" >&2
  cat "$TMP/clusters.json" >&2; exit 1
}

# Sketches: after the replay load, the heavy-hitter endpoint must report
# tracked templates with counts, and a non-zero distinct-user count.
curl -sf "http://$ADDR/toplist?k=5" >"$TMP/toplist.json"
grep -q '"tracked_templates": *[1-9]' "$TMP/toplist.json" || {
  echo "smoke: /toplist tracked no templates:" >&2
  cat "$TMP/toplist.json" >&2; exit 1
}
grep -q '"skeleton": *"' "$TMP/toplist.json" || {
  echo "smoke: /toplist entries carry no skeletons:" >&2
  cat "$TMP/toplist.json" >&2; exit 1
}
grep -q '"distinct_users_estimate": *[1-9]' "$TMP/toplist.json" || {
  echo "smoke: /toplist distinct-user count is zero:" >&2
  cat "$TMP/toplist.json" >&2; exit 1
}

# Tracing: the replay traffic must be visible as completed request traces,
# and the 1µs threshold must have produced structured slow-request lines.
curl -sf "http://$ADDR/debug/requests?n=5" >"$TMP/requests.json"
grep -q '"id":' "$TMP/requests.json" || {
  echo "smoke: /debug/requests returned no traces:" >&2
  cat "$TMP/requests.json" >&2; exit 1
}
grep -q '"msg":"slow request".*"trace_id":' "$TMP/replay-daemon.log" || {
  echo "smoke: no slow-request line with a trace_id in the JSON log:" >&2
  tail "$TMP/replay-daemon.log" >&2; exit 1
}

kill -TERM "$PID"
wait "$PID"

echo "smoke: replay ok ($(awk '/BenchmarkReplayIngestP99/{print $3}' "$TMP/replay.txt") ns p99, non-empty /clusters)"

# ---------------------------------------------------------------------------
# Columnar retention: offline-compact the crash phase's surviving journal
# into blocks, require a bit-identical scan (the scanned TSV, sorted, equals
# the ingested log, sorted), then start the daemon with -retain on the same
# data dir and require GET /history to answer from the blocks.
# ---------------------------------------------------------------------------

"$CLI" -compact -data-dir "$TMP/data" -retain-dir "$TMP/blocks" \
  >"$TMP/compact.txt" 2>>"$TMP/retention.log"
grep -q "compacted $TOTAL entries into [1-9]" "$TMP/compact.txt" || {
  echo "smoke: offline compaction did not cover all $TOTAL entries:" >&2
  cat "$TMP/compact.txt" "$TMP/retention.log" >&2; exit 1
}

"$CLI" -scan -retain-dir "$TMP/blocks" >"$TMP/scan.tsv" 2>>"$TMP/retention.log"
LC_ALL=C sort "$TMP/log.tsv" >"$TMP/log-sorted.tsv"
LC_ALL=C sort "$TMP/scan.tsv" >"$TMP/scan-sorted.tsv"
cmp -s "$TMP/log-sorted.tsv" "$TMP/scan-sorted.tsv" || {
  echo "smoke: block scan ($(wc -l <"$TMP/scan.tsv") lines) differs from the $TOTAL ingested lines:" >&2
  diff "$TMP/log-sorted.tsv" "$TMP/scan-sorted.tsv" | head -20 >&2 || true
  exit 1
}

"$BIN" -addr "$ADDR" -data-dir "$TMP/data" -retain -retain-dir "$TMP/blocks" \
  2>"$TMP/retention-daemon.log" &
PID=$!
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke: daemon died:" >&2; cat "$TMP/retention-daemon.log" >&2; exit 1
  fi
  sleep 0.1
done

# The history endpoint answers from the block indexes alone — no journal read.
curl -sf "http://$ADDR/history?step=168h" >"$TMP/history.json"
grep -q "\"entries\": *$TOTAL" "$TMP/history.json" || {
  echo "smoke: /history did not count all $TOTAL retained entries:" >&2
  cat "$TMP/history.json" >&2; exit 1
}
grep -q '"windows": *\[' "$TMP/history.json" || {
  echo "smoke: /history returned no windows:" >&2
  cat "$TMP/history.json" >&2; exit 1
}
curl -sf "http://$ADDR/healthz" >"$TMP/healthz-retain.json"
grep -q '"retain_blocks": *[1-9]' "$TMP/healthz-retain.json" || {
  echo "smoke: healthz reports no retained blocks:" >&2
  cat "$TMP/healthz-retain.json" >&2; exit 1
}

kill -TERM "$PID"
wait "$PID"

echo "smoke: retention ok ($TOTAL entries compacted, scanned back and served via /history)"

# ---------------------------------------------------------------------------
# CLI streaming: `sqlclean -stream` runs the streaming engine at one shard.
# Its cleaned log must hold the same lines as the batch pipeline's, the
# -json stream block must count exactly the lines it wrote, and its
# distinct-user count, antipattern rows and SWS rows must equal the batch
# -json's (written in the crash phase), with some row's disjoint_ratio
# nonzero.
# ---------------------------------------------------------------------------

"$CLI" -stream -clean "$TMP/s.tsv" -json "$TMP/s.json" "$TMP/log.tsv" 2>"$TMP/stream.log"
LC_ALL=C sort "$TMP/s.tsv" >"$TMP/s.sorted"
LC_ALL=C sort "$TMP/b.tsv" >"$TMP/b.sorted"
cmp -s "$TMP/s.sorted" "$TMP/b.sorted" || {
  echo "smoke: sqlclean -stream and batch -clean wrote different lines:" >&2
  diff "$TMP/s.sorted" "$TMP/b.sorted" | head -n 20 >&2; exit 1
}
STREAMED=$(wc -l <"$TMP/s.tsv")
OUT=$(grep -m 1 -oE '"out": *[0-9]+' "$TMP/s.json" | grep -oE '[0-9]+$')
[ "$OUT" -eq "$STREAMED" ] || {
  echo "smoke: -stream -json reports out=$OUT for $STREAMED written lines" >&2; exit 1
}
S_USERS=$(grep -m 1 -oE '"distinct_users_estimate": *[0-9]+' "$TMP/s.json" | grep -oE '[0-9]+$')
B_USERS=$(grep -m 1 -oE '"distinct_users": *[0-9]+' "$TMP/b.json" | grep -oE '[0-9]+$')
[ -n "$S_USERS" ] && [ "$S_USERS" -eq "$B_USERS" ] || {
  echo "smoke: -stream -json counts ${S_USERS:-no} distinct users, batch -json $B_USERS" >&2; exit 1
}

for FIELD in antipattern sws; do
  S_N=$(grep -c "\"$FIELD\": true" "$TMP/s.json" || true)
  B_N=$(grep -c "\"$FIELD\": true" "$TMP/b.json" || true)
  [ "$S_N" -eq "$B_N" ] || {
    echo "smoke: -stream -json marks $S_N templates $FIELD, batch -json $B_N" >&2; exit 1
  }
done
grep -qE '"disjoint_ratio": *(0\.[0-9]*[1-9]|[1-9])' "$TMP/s.json" || {
  echo "smoke: every -stream -json disjoint_ratio is zero" >&2; exit 1
}

echo "smoke: stream ok ($STREAMED lines, $S_USERS users and $S_N SWS templates, the same as batch)"
