#!/bin/sh
# Prints the figures every simplicity PR quotes: non-test Go lines outside
# the frozen benchmark harness and the build directory (scripts/pairs.sh
# checks the parent out there), the same for each package directory given
# as an argument (e.g. scripts/loc.sh internal/cache), and the line counts
# of the four documents that describe the system.
set -eu
cd "$(dirname "$0")/.."
count() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' ! -path './.bench_build/*' -print0 |
		xargs -0 cat | wc -l
}
echo "non-test Go lines outside cmd/bench: $(count .)"
for dir in "$@"; do
	echo "  $dir: $(count "./${dir#./}")"
done
docs="DESIGN.md EXPERIMENTS.md README.md API.md"
# shellcheck disable=SC2086 # the list is split on purpose
echo "document lines ($docs): $(cat $docs | wc -l)"
for doc in $docs; do
	echo "  $doc: $(wc -l <"$doc")"
done
