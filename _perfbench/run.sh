#!/usr/bin/env bash
# Builds the fppnd daemon and the benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind goes to .bench_build/ (the Go build
# cache included), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fppnd" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (need go.mod, cmd/fppnd and _perfbench)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# The toolchain's caches and config (telemetry counters included) live in
# the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -o "$out/fppnd" ./cmd/fppnd >&2
go -C _perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -daemon "$out/fppnd" "$@"
