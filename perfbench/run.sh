#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR when it is
# set, else to .bench_build in the working directory; traced runs write
# their spans to .bench_build/spans.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# Keep every toolchain write (build cache, module cache, telemetry,
# compiler and linker temporaries) inside $out.
export TMPDIR=$out/tmp
export GOTMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
