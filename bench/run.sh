#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (Go build cache, temporary files, the
# binary) stays under .bench_build at the root of the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The environment stamp's commit: absent outside a git work tree.
# The ceiling keeps git from looking for a repository above the checkout.
BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
export BENCH_COMMIT
(cd "$here" && go build -o "$build/lintime-bench" .)
cd "$root"
exec "$build/lintime-bench" "$@"
