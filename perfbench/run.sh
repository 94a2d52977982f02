#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload sketch-serve --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
