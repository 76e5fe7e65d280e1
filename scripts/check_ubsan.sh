#!/usr/bin/env bash
# Rebuild the mrf/runtime/sweep-labelled tests under
# UndefinedBehaviorSanitizer alone and run them. The SIMD sweep
# kernels lean on integer edge cases ASan does not see — 128-bit
# draw scaling, Q32 weight accumulation, lane widening/narrowing —
# and a pure UBSan build keeps those checked without ASan's shadow
# memory slowing the vector paths. Kept out of the default (tier-1)
# build so `ctest` stays fast; run this script directly, or
# configure the main build with -DRSU_UBSAN_CHECK=ON to register it
# as a CTest test labelled "ubsan".
#
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${SOURCE_DIR}/build-ubsan}"

cmake -B "${BUILD_DIR}" -S "${SOURCE_DIR}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build "${BUILD_DIR}" -j \
    --target mrf_test runtime_test robustness_test fast_sweep_test simd_sweep_test \
    workload_test extensions_test integration_test

# Only the labelled (mrf + runtime + sweep) tests: the sampler
# kernels, the lookup tables, and every wrapper of the sweep core
# that drives them (the chromatic executor, RsuGibbsSampler in Isa
# and Direct mode, AcceleratorSim).
ctest --test-dir "${BUILD_DIR}" -L 'runtime|mrf|sweep' \
    --output-on-failure -j "$(nproc)"

echo "UndefinedBehaviorSanitizer check passed."
