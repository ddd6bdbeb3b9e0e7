#!/usr/bin/env bash
# Builds the benchmark and the doocserve binary it drives from the source
# tree in the current directory, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload spmv-ooc --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, binaries, scratch) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d internal/core || ! -d cmd/doocserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/, cmd/doocserve and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off

go build -o "$build/bin/doocserve" ./cmd/doocserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
