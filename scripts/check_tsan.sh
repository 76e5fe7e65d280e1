#!/usr/bin/env bash
# Rebuild the concurrency-sensitive tests under ThreadSanitizer and
# run them. Kept out of the default (tier-1) build so `ctest` stays
# fast; run this script directly, or configure the main build with
# -DRSU_TSAN_CHECK=ON to register it as a CTest test labelled
# "tsan".
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${SOURCE_DIR}/build-tsan}"

cmake -B "${BUILD_DIR}" -S "${SOURCE_DIR}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "${BUILD_DIR}" -j \
    --target runtime_test robustness_test mrf_test fast_sweep_test simd_sweep_test \
    workload_test extensions_test integration_test

# Only the labelled (runtime + mrf + sweep) tests: the suites that
# exercise the thread pool, the chromatic executor, the sampler
# kernels it drives, and the other wrappers of the sweep core
# (RsuGibbsSampler in Isa and Direct mode, AcceleratorSim).
ctest --test-dir "${BUILD_DIR}" -L 'runtime|mrf|sweep' \
    --output-on-failure -j "$(nproc)"

echo "ThreadSanitizer check passed."
