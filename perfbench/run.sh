#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload point-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temporary
# files, traced runs' span logs) stays under .bench_build/ in the current
# directory. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
