#!/usr/bin/env bash
# The command BENCHMARK.json names: build bdload (its own module) and
# bdserved into .bench_build/ at the root of the checkout, then run one
# workload. Everything the build and the run write — Go's build cache
# and temporary files included — stays inside the checkout.
#
#   bash cmd/bdload/bench.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd cmd/bdload && go build -o "$build/bdload" .) >&2
go build -o "$build/bdserved" ./cmd/bdserved >&2
exec "$build/bdload" -bdserved "$build/bdserved" -out "$build/out" "$@"
