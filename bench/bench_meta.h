/**
 * @file
 * Shared benchmark metadata: build configuration and machine info.
 *
 * Benchmark numbers are meaningless without knowing what was built
 * and where it ran, so every JSON-emitting bench records a common
 * "metadata" object — hardware concurrency, the SIMD ISA the Simd
 * sweep path selected at startup, CMake build type, and the
 * effective compiler flags (injected by bench/CMakeLists.txt as
 * RSU_BUILD_TYPE / RSU_CXX_FLAGS definitions). Non-release builds
 * additionally get a warning banner on stderr and a "build_warning"
 * field in the metadata, mirroring the configure-time CMake warning:
 * numbers from un-optimized builds must never be mistaken for
 * results.
 */

#ifndef RSU_BENCH_BENCH_META_H
#define RSU_BENCH_BENCH_META_H

#include <cstdio>
#include <cstring>
#include <thread>

#include "core/simd.h"

#ifndef RSU_BUILD_TYPE
#define RSU_BUILD_TYPE "unknown"
#endif
#ifndef RSU_CXX_FLAGS
#define RSU_CXX_FLAGS ""
#endif

namespace rsu::bench {

inline const char *
buildType()
{
    return RSU_BUILD_TYPE;
}

inline const char *
buildFlags()
{
    return RSU_CXX_FLAGS;
}

/** True for the build types whose timings are meaningful. */
inline bool
releaseBuild()
{
    return std::strcmp(RSU_BUILD_TYPE, "Release") == 0 ||
           std::strcmp(RSU_BUILD_TYPE, "RelWithDebInfo") == 0;
}

inline unsigned
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/** stderr banner when benchmarking a non-release build. */
inline void
warnIfNotRelease()
{
    if (releaseBuild())
        return;
    std::fprintf(stderr,
                 "WARNING: build type is '%s' — benchmark timings "
                 "from this build are not meaningful; reconfigure "
                 "with -DCMAKE_BUILD_TYPE=Release.\n",
                 buildType());
}

/**
 * Write the common `"metadata": {...},` object (with trailing
 * comma) into an in-progress JSON document, indented two spaces.
 * @p extra_fields optionally appends bench-specific fields: raw
 * JSON `"key": value` pairs (comma-separated, no surrounding
 * braces), e.g. `"\"parallel_caveat\": \"...\""`.
 */
inline void
writeMetaJson(FILE *json, const char *extra_fields = nullptr)
{
    std::fprintf(json,
                 "  \"metadata\": {\n"
                 "    \"hardware_concurrency\": %u,\n"
                 "    \"simd_isa\": \"%s\",\n"
                 "    \"build_type\": \"%s\",\n"
                 "    \"cxx_flags\": \"%s\",\n"
                 "    \"release_build\": %s",
                 hardwareConcurrency(),
                 rsu::core::simdIsaName(rsu::core::activeSimdIsa()),
                 buildType(), buildFlags(),
                 releaseBuild() ? "true" : "false");
    if (!releaseBuild())
        std::fprintf(json,
                     ",\n    \"build_warning\": \"non-release build; "
                     "timings are not meaningful\"");
    if (extra_fields && *extra_fields)
        std::fprintf(json, ",\n    %s", extra_fields);
    std::fprintf(json, "\n  },\n");
}

} // namespace rsu::bench

#endif // RSU_BENCH_BENCH_META_H
