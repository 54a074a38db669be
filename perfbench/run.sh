#!/usr/bin/env bash
# Builds the benchmark and the pipesimd daemon from this checkout, then runs
# one benchmark invocation. Run from the checkout root:
#
#   bash perfbench/run.sh --workload sim-stepped --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the checkout root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
bin="$build/perfbench/bin"
mkdir -p "$bin"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOMAXPROCS="$(nproc)"

(cd "$root/perfbench" && go build -o "$bin/perfbench" .)
go build -o "$bin/pipesimd" ./cmd/pipesimd

exec "$bin/perfbench" -root "$root" -pipesimd "$bin/pipesimd" "$@"
