#!/usr/bin/env bash
# Builds easeml-server and the journeybench runner from this checkout into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#   bash journeybench/run.sh --workload ingest --seed 1 --seconds 24 --trace 0
# Run it from the root of the repository. The Go build cache, GOPATH and
# the toolchain's config directory are kept under .bench_build/ as well, so
# a run writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/easeml-server" ./cmd/easeml-server
(cd journeybench && go build -o "$out/journeybench" .)
exec "$out/journeybench" --server "$out/easeml-server" "$@"
