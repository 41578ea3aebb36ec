#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: `bash bench/run.sh --workload <name>
# --seed <n> --seconds <s> --trace <0|1>`. Everything the build leaves
# behind (the binary, the Go build cache) stays under .bench_build/ in
# the checkout, and the traces under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The go command writes nothing outside the checkout either: its build
# cache, module cache and telemetry counters (kept under the user's
# config directory) all go under .bench_build/.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# bench/ is a module of its own (it may not add to the repository's
# build files) that replaces the module `dimred` with the checkout.
(cd "$here" && go build -o "$build/dimred-bench" .)

cd "$here"
exec "$build/dimred-bench" "$@"
