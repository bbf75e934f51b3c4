#!/usr/bin/env bash
# Builds predictd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and every temporary file stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/predictd || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/predictd and internal/ are required)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/predictd" ./cmd/predictd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -predictd "$out/predictd" -workdir "$out/tmp" -outdir "$out" "$@"
