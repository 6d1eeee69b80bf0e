#!/usr/bin/env bash
# Builds the FCMA benchmark (perfbench) from source and runs it from the root
# of the checkout. Arguments pass through unchanged:
#
#   bash perfbench/run.sh --workload select-facescene --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and the run's scratch files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# never fetches anything: perfbench uses only the standard library and
# the fcma module one directory up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
"$build/perfbench" --workdir "$build" "$@"
