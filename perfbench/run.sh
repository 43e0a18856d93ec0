#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
# Run from the root of a checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/scenario" ]]; then
	echo "perfbench: run from the root of a pef checkout (no go.mod with internal/scenario here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
