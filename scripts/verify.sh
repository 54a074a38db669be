#!/bin/sh
# Repository verification: vet, the full test suite under the race detector
# (the parallel sweep runner and the benchmark-image cache are exercised
# concurrently), and every fuzz target's seed corpus (run automatically by
# `go test`, including in -short mode). perfbench/ is a separate Go module,
# so ./... never reaches it; its vet and unit tests run here too.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race ./...

echo "== perfbench: go vet, go test"
(cd perfbench && go vet . && go test .)

echo "verify: OK"
