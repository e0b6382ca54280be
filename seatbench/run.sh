#!/usr/bin/env bash
# Builds seatbench from source and runs it with the given arguments:
#
#   bash seatbench/run.sh --workload live-europe --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build, its Go cache and the spans
# of traced runs stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The Go command keeps its user settings and telemetry under the user
# config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/seatbench" .)
exec "$out/seatbench" "$@"
