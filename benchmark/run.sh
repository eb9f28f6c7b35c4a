#!/usr/bin/env bash
# Builds the benchmark driver (package ./benchmark of module pdtstore) from
# source into .bench_build/ at the checkout root and runs it from there with
# the arguments given:
#
#   bash benchmark/run.sh --workload clean --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write — Go's build cache included — stays
# below .bench_build/, so the checkout is the only directory touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod at $(pwd): the program's source is not here" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
# The go command leaves a detached telemetry child behind unless the mode
# file under HOME says off (the GOTELEMETRY variable is read-only).
mkdir -p "$out/home/.config/go/telemetry"
echo off >"$out/home/.config/go/telemetry/mode"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$out/pdtstore-benchmark" ./benchmark
exec "$out/pdtstore-benchmark" "$@"
