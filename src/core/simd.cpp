#include "core/simd.h"

namespace rsu::core {

const char *
simdIsaName(SimdIsa isa)
{
    return isa == SimdIsa::Avx2 ? "avx2" : "scalar";
}

SimdIsa
activeSimdIsa()
{
#if (defined(__x86_64__) || defined(__i386__)) &&                   \
    (defined(__GNUC__) || defined(__clang__))
    static const SimdIsa active = __builtin_cpu_supports("avx2")
                                      ? SimdIsa::Avx2
                                      : SimdIsa::Scalar;
    return active;
#else
    return SimdIsa::Scalar;
#endif
}

} // namespace rsu::core
