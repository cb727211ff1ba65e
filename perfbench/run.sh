#!/usr/bin/env bash
# Builds the benchmark against the nonrep module of the enclosing checkout
# and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload call-inproc --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary and the evidence
# vaults of the run (removed when the run ends).
set -euo pipefail
out="$PWD/.bench_build"
bench="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
