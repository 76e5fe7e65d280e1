#!/bin/sh
# Reproduce every paper table/figure and collect outputs.
#
# Usage: scripts/reproduce.sh [build-dir] [results-dir]
set -e

ROOT=$(cd "$(dirname "$0")/.." && pwd)
RESULTS=${2:-results}

cd "$ROOT"
# Absolute, so the binaries run from inside $RESULTS below.
BUILD=$(mkdir -p "${1:-build}" && cd "${1:-build}" && pwd)
cmake -S . -B "$BUILD"
cmake --build "$BUILD"

mkdir -p "$RESULTS"

echo "== tests =="
ctest --test-dir "$BUILD" --output-on-failure \
    | tee "$RESULTS/test_output.txt" | tail -2

echo "== benchmarks =="
for b in "$BUILD"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "-- $name"
    (cd "$RESULTS" && "$b" > "$name.txt" 2>&1)
done

echo "== examples =="
for e in "$BUILD"/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] || continue
    name=$(basename "$e")
    echo "-- $name"
    (cd "$RESULTS" && "$e" > "example_$name.txt" 2>&1)
done

echo "done; outputs (tables, PGM images) are in $RESULTS/"
