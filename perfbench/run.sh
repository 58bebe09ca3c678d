#!/usr/bin/env bash
# Builds the benchmark and the sqlcleand daemon from the checkout it is run
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload batch-clean --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# run's scratch files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sqlcleand" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sqlcleand and perfbench/ must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
# Everything the go command reads or writes beyond the toolchain — build
# cache, module cache, config and telemetry files — stays under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/bin" "$out/work"
go build -o "$out/bin/sqlcleand" ./cmd/sqlcleand
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/sqlcleand" -work "$out/work" -root "$root" "$@"
