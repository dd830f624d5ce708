#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark (a module of its own
# in bench/) from the checkout it is run in and hands it the driver's
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, configuration, binaries) stays under .bench_build in the checkout,
# as do the benchmark's scratch and durability directories.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/config/go/telemetry"
# With a fresh configuration directory the go command would start a telemetry
# child that outlives it; switched off, it starts none.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
