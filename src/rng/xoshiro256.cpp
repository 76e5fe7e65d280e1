#include "rng/xoshiro256.h"

#include "rng/splitmix64.h"

namespace rsu::rng {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Xoshiro256::Xoshiro256(uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s_)
        word = sm.next();
}

Xoshiro256::result_type
Xoshiro256::operator()()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

void
Xoshiro256::fill(result_type *out, std::size_t n)
{
    Xoshiro256 local = *this;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = local();
    *this = local;
}

double
Xoshiro256::uniform()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Xoshiro256::uniformPositive()
{
    // (raw >> 11) is in [0, 2^53); adding one shifts to (0, 2^53].
    return static_cast<double>(((*this)() >> 11) + 1) * 0x1.0p-53;
}

uint64_t
Xoshiro256::below(uint64_t bound)
{
    // Lemire's nearly-divisionless rejection method.
    uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
        const uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<uint64_t>(m);
        }
    }
    return static_cast<uint64_t>(m >> 64);
}

void
Xoshiro256::jump()
{
    static constexpr uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL,
    };

    uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (uint64_t word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (word & (1ULL << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (*this)();
        }
    }
    s_ = {s0, s1, s2, s3};
}

} // namespace rsu::rng
