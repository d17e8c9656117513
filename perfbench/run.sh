#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload offline-2x4 --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, traces and CPU
# profiles) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the fusedcc sources are not here" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$build/perfbench"

if ! go -C "$root/perfbench" build -o "$build/perfbench/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench/perfbench" -out "$build/perfbench" "$@"
