#!/usr/bin/env bash
# Rebuild the mrf/runtime/sweep-labelled tests under one sanitizer
# and run them. Kept out of the default (tier-1) build so `ctest`
# stays fast.
#
#   asan   AddressSanitizer + UndefinedBehaviorSanitizer: the
#          table-driven sweep kernels index precomputed arrays with
#          raw site/label arithmetic, and the SIMD kernels have
#          integer edge cases (128-bit draw scaling, Q32 weight
#          accumulation, lane widening/narrowing); this build
#          polices both.
#   tsan   ThreadSanitizer: the thread pool, the chromatic executor
#          and the sampler kernels it drives.
#
# Usage: scripts/check_sanitizer.sh asan|tsan [build-dir]
#        (default build-dir: build-<sanitizer>)
set -euo pipefail

# RECOVER is empty for TSan, whose reports already fail the tests.
case "${1:-}" in
asan)
    SANITIZE=address,undefined
    RECOVER=" -fno-sanitize-recover=all"
    NAME="Address/UB sanitizer" ;;
tsan)
    SANITIZE=thread
    RECOVER=""
    NAME="ThreadSanitizer" ;;
*)
    echo "usage: $0 asan|tsan [build-dir]" >&2
    exit 2 ;;
esac

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${2:-${SOURCE_DIR}/build-$1}"

cmake -B "${BUILD_DIR}" -S "${SOURCE_DIR}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=${SANITIZE}${RECOVER} -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${SANITIZE}"
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target mrf_test runtime_test robustness_test fast_sweep_test simd_sweep_test \
    workload_test extensions_test integration_test

# Only the labelled (mrf + runtime + sweep) tests: the sampler
# kernels, the lookup tables, and every wrapper of the sweep core
# that drives them (the chromatic executor, RsuGibbsSampler in Isa
# and Direct mode, AcceleratorSim).
ctest --test-dir "${BUILD_DIR}" -L 'runtime|mrf|sweep' \
    --output-on-failure -j "$(nproc)"

echo "${NAME} check passed."
