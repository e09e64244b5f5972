#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. The Go build
# cache is kept in the checkout (.bench_build), so a run reads and writes
# nothing of the toolchain's outside it and each checkout builds from source.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin"
export GOCACHE="$work/gocache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$work/bin/bench" .)
cd "$root"
exec "$work/bin/bench" "$@"
