#!/bin/sh
# Regenerates cmd/pipesimd/default.pgo, the CPU profile that `go build`
# applies to the daemon by default (profile-guided optimization, -pgo=auto).
#
#   scripts/pgo.sh
#
# The profile comes from this repository's own root benchmarks, which run
# the simulator the way the daemon's cold /v1/run requests do: PIPE machines
# at T=1 and T=6 with skip-ahead on and off (BenchmarkSkipAhead), and PIPE
# and conventional machines with cache introspection off and on
# (BenchmarkMissClassOverhead). Regenerate it after a change that moves
# the simulator's hot paths, and commit the result with that change.
# perfbench's own binary lives in a separate module and builds without a
# profile.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -run '^$' -bench '^(BenchmarkSkipAhead|BenchmarkMissClassOverhead)$' -benchtime 2s \
	-cpuprofile "$tmp/cpu.pprof" -o "$tmp/pipesim.test" . >"$tmp/bench.txt"
grep '^Benchmark' "$tmp/bench.txt" >&2
cp "$tmp/cpu.pprof" cmd/pipesimd/default.pgo
echo "pgo: wrote cmd/pipesimd/default.pgo ($(wc -c <cmd/pipesimd/default.pgo) bytes)" >&2
