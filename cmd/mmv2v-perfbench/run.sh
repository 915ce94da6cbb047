#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash cmd/mmv2v-perfbench/run.sh --workload road-fig9 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go build
# cache, the binary, the traced run's spans) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/cmd/mmv2v-perfbench" && go build -o "$out/mmv2v-perfbench" .) >&2
exec "$out/mmv2v-perfbench" "$@"
