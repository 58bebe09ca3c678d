GO ?= go

# Version stamp injected into both binaries (see internal/buildinfo).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse HEAD 2>/dev/null || echo "")
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS  = -X sqlclean/internal/buildinfo.Version=$(VERSION) \
           -X sqlclean/internal/buildinfo.Commit=$(COMMIT) \
           -X sqlclean/internal/buildinfo.Date=$(DATE)

# The benchmarks of record (see `bench` below).
BENCH_REGEX = BenchmarkParseParallel|BenchmarkPipelineParallel|BenchmarkPipelineSeedSerial|BenchmarkDedupSharded|BenchmarkStreamSharded|BenchmarkClusterBoxes|BenchmarkColstore

.PHONY: check build binaries test race bench bench-json bench-compare bench-ingest bench-ingest-compare profile vet smoke

# Default: everything the CI gate runs.
check: vet test race

build:
	$(GO) build ./...

# Version-stamped binaries: the batch CLI and the ingestion daemon.
binaries:
	$(GO) build -ldflags "$(LDFLAGS)" -o bin/sqlclean ./cmd/sqlclean
	$(GO) build -ldflags "$(LDFLAGS)" -o bin/sqlcleand ./cmd/sqlcleand

test:
	$(GO) test ./...

# The concurrency tests (parsedlog hammer, core determinism, sharded stream
# and server) are only meaningful under the race detector.
race:
	$(GO) test -race ./...

# Benchmarks of record: parse/pipeline scaling across worker counts, the
# seed-cost baseline, and the sharded dedup/stream engines (see DESIGN.md,
# "Parallel execution" and "Service architecture").
bench:
	$(GO) test -bench '$(BENCH_REGEX)' -benchmem -run '^$$' .

# Machine-readable snapshot of the benchmarks of record: name → ns/op,
# B/op, allocs/op. Commit BENCH_pipeline.json to track regressions per PR.
bench-json:
	$(GO) test -bench '$(BENCH_REGEX)' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson > BENCH_pipeline.json

# Perf-regression gate: rerun the benchmarks of record (short benchtime —
# this is a smoke-level gate, not a measurement) and diff against the
# committed baseline. Warn-only by default; drop -warn-only for a hard gate.
BENCH_COMPARE_TIME ?= 1x
bench-compare:
	$(GO) test -bench '$(BENCH_REGEX)' -benchmem -benchtime $(BENCH_COMPARE_TIME) -run '^$$' . \
	  | $(GO) run ./cmd/benchjson -compare BENCH_pipeline.json -threshold 25 -warn-only

# Ingest benchmark of record: closed-loop replay (32 clients, unthrottled)
# against a crash-durable daemon at -fsync always. Snapshots throughput,
# latency percentiles, drain time and the group-commit fsync amortization
# into BENCH_ingest.json; commit it to track the ingest hot path per PR.
bench-ingest: binaries
	./scripts/bench_ingest.sh

# Warn-only ingest perf gate: rerun the replay and diff against the
# committed BENCH_ingest.json via benchjson -compare.
bench-ingest-compare: binaries
	COMPARE=1 ./scripts/bench_ingest.sh

# CPU + allocation profiles of the pipeline benchmark on the seed workload.
# Inspect with: go tool pprof -top profiles/cpu.prof
profile:
	mkdir -p profiles
	$(GO) test -bench 'BenchmarkPipelineParallel/workers=1' -run '^$$' -benchtime 5x \
	  -cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof .
	$(GO) tool pprof -top -nodecount 15 profiles/cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_objects profiles/mem.prof

# End-to-end smoke of the ingestion daemon: build, start, ingest a generated
# log over HTTP, assert /healthz and a non-empty /report, drain.
smoke: binaries
	./scripts/smoke.sh

vet:
	$(GO) vet ./...
