#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload read-cold --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The binary, Go's build cache and traced
# runs' span files go under $CARGO_TARGET_DIR when set, else .bench_build,
# both inside the checkout.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command's user config (go env file, telemetry counters) lives
# under XDG_CONFIG_HOME; keep it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
