#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload submit-open --seed 1 --seconds 18 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# replicas' stores all stay under the build directory ($CARGO_TARGET_DIR,
# default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" --dir "$build/e2e-run-$$" "$@"
