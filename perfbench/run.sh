#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload trace-replay --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's own config and
# telemetry files live in .bench_build/ at the root, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
if ! grep -qs '^module delaystage$' "$root/go.mod"; then
  echo "perfbench: run from the root of the delaystage repository (no go.mod for module delaystage in $root)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
