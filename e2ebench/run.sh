#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root, forwarding every argument:
#
#   bash e2ebench/run.sh --workload dist2 --seed 1 --seconds 55 --trace 0
#
# Build outputs, the Go build cache, the go command's own state (module
# cache, GOPATH, telemetry counters under XDG_CONFIG_HOME) and the traced
# run's spans stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/trafficd/topology.xml" ]]; then
	echo "e2ebench: $root is not a trafficcep checkout (no go.mod or cmd/trafficd/topology.xml)" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOENV=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" --spans "$build/spans" "$@"
