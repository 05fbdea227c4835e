#!/usr/bin/env bash
# Builds the dx100 benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash dxbench/run.sh --workload gather-scatter --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the binary, the Go build cache) and every output
# file (traces, profiles) stays under $CARGO_TARGET_DIR, default
# .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go/cache" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path"
export GOTMPDIR="$out/go/tmp" TMPDIR="$out/go/tmp" XDG_CONFIG_HOME="$out/go/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export DXBENCH_OUT="$out"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/dxbench" .) >&2
exec "$out/dxbench" "$@"
