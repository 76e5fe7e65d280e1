#!/usr/bin/env bash
# Print the non-blank, non-comment source lines (.h and .cpp) of each
# src/ directory and their total: the "net lines removed from src/"
# figure simplicity changes report. Lines that start with //, /* or *
# count as comments. Informational only; it gates nothing.
#
# Usage: scripts/count_lines.sh [src-dir]   (default: src next to
#        this script)
set -euo pipefail

SRC="${1:-$(cd "$(dirname "$0")/.." && pwd)/src}"

count() {
    find "$@" -maxdepth 1 -type f \( -name '*.h' -o -name '*.cpp' \) \
        -print0 | xargs -0 -r cat | grep -v '^\s*$' |
        grep -Ecv '^\s*(//|/\*|\*)' || true
}

total=0
for dir in "$SRC"/ "$SRC"/*/; do
    n=$(count "$dir")
    name="src/$(basename "$dir")"
    [ "$dir" = "$SRC/" ] && name="src (top)"
    printf '%-14s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
