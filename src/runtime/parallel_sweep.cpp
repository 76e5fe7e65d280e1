#include "runtime/parallel_sweep.h"

#include <algorithm>
#include <stdexcept>

namespace rsu::runtime {

rsu::core::RowParallelFor
parallelRowRunner(ThreadPool &pool)
{
    return [&pool](int n, const std::function<void(int)> &fn) {
        if (n <= 1 || pool.size() <= 1) {
            for (int i = 0; i < n; ++i)
                fn(i);
            return;
        }
        const auto bands = shardRows(n, std::min(n, pool.size() * 4));
        pool.run(static_cast<int>(bands.size()), [&](int c) {
            for (int i = bands[c].y0; i < bands[c].y1; ++i)
                fn(i);
        });
    };
}

std::vector<RowBand>
shardRows(int height, int shards)
{
    if (height < 0)
        throw std::invalid_argument("shardRows: need height >= 0");
    if (shards < 1)
        throw std::invalid_argument("shardRows: need shards >= 1");
    std::vector<RowBand> bands(shards);
    const int base = height / shards;
    const int extra = height % shards;
    int y = 0;
    for (int s = 0; s < shards; ++s) {
        const int rows = base + (s < extra ? 1 : 0);
        bands[s] = RowBand{y, y + rows};
        y += rows;
    }
    return bands;
}

ParallelSweepExecutor::ParallelSweepExecutor(ThreadPool &pool,
                                             int shards)
    : pool_(pool), shards_(shards == 0 ? pool.size() : shards)
{
    if (shards_ < 1)
        throw std::invalid_argument(
            "ParallelSweepExecutor: need shards >= 1");
}

} // namespace rsu::runtime
