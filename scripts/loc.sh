#!/bin/sh
# Prints the figure every simplicity PR quotes: non-test Go lines outside
# the frozen benchmark harness, and the same for each package directory
# given as an argument (e.g. scripts/loc.sh internal/cache).
set -eu
cd "$(dirname "$0")/.."
count() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' -print0 |
		xargs -0 cat | wc -l
}
echo "non-test Go lines outside cmd/bench: $(count .)"
for dir in "$@"; do
	echo "  $dir: $(count "./${dir#./}")"
done
