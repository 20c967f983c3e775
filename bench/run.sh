#!/usr/bin/env bash
# Builds the benchmark harness and the mserve daemon from this checkout,
# then runs the harness with the given arguments, for example:
#
#   bash bench/run.sh -workload sweep -seed 1 -seconds 20 -trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the checkout. A failed build exits non-zero before
# anything is measured.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/bin/bench" .)
go build -o "$out/bin/mserve" ./cmd/mserve
exec "$out/bin/bench" "$@"
