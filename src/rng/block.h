/**
 * @file
 * Buffered block generation over a Xoshiro256 engine.
 *
 * The Simd sweep path consumes exactly one raw 64-bit variate per
 * site (scaled to the integer weight total instead of converted to
 * a double), so per-call generator overhead is a measurable slice
 * of its inner loop. BlockRng refills a small buffer in one tight
 * loop and hands variates out of it; the sequence of values is
 * *identical* to calling the engine directly — the buffer only
 * batches the calls — so buffered and unbuffered consumers of the
 * same stream stay interchangeable. Each runtime shard owns one
 * BlockRng next to its RNG stream; nothing here is thread-safe.
 */

#ifndef RSU_RNG_BLOCK_H
#define RSU_RNG_BLOCK_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rng/xoshiro256.h"

namespace rsu::rng {

/** Fixed-capacity refill buffer over an external engine. */
class BlockRng
{
  public:
    explicit BlockRng(int capacity = 256)
        : buffer_(capacity > 0 ? capacity : 1),
          pos_(static_cast<int>(buffer_.size()))
    {
    }

    /** Next raw 64-bit value of @p rng's stream (refilling the
     * buffer from @p rng when drained). */
    uint64_t
    next(Xoshiro256 &rng)
    {
        if (pos_ == static_cast<int>(buffer_.size())) {
            rng.fill(buffer_.data(), buffer_.size());
            pos_ = 0;
        }
        return buffer_[pos_++];
    }

    /** The next @p n values of @p rng's stream into @p out: the same
     * values as @p n calls of next(), copied in one piece when the
     * buffer holds them all. */
    void
    next(Xoshiro256 &rng, uint64_t *out, int n)
    {
        if (pos_ + n <= static_cast<int>(buffer_.size())) {
            std::copy_n(buffer_.data() + pos_, n, out);
            pos_ += n;
            return;
        }
        for (int i = 0; i < n; ++i)
            out[i] = next(rng);
    }

  private:
    std::vector<uint64_t> buffer_;
    int pos_;
};

} // namespace rsu::rng

#endif // RSU_RNG_BLOCK_H
