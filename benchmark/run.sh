#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from this checkout's
# source and run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build writes stays inside the benchmark's directory:
# the binary, Go's build cache, its temporary directory and its
# telemetry counters all live under benchmark/.build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -o "$build/streambench" ./benchmark
exec "$build/streambench" "$@"
