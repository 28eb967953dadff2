#!/usr/bin/env bash
# Builds cmd/bench into .bench_build/ of the checkout it is run from (the
# repository root) and runs it with the arguments given. Everything the
# build and the run write — Go's build cache included — stays under
# .bench_build/.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$src" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
