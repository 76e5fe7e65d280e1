/**
 * @file
 * Sweep schedules for MCMC updates on the lattice.
 *
 * A first-order MRF's conditional-independence structure lets all
 * same-colour sites of a checkerboard partition update concurrently
 * (paper section 4.2, Figure 4) — the parallelism both the augmented
 * GPU and the discrete accelerator exploit. The site-by-site
 * samplers (ICM, Metropolis, RsuGibbsSampler's Isa mode and
 * AcceleratorSim's round-robin deal) visit sites with these
 * generators; the sweep core's drivers hand it row runs in the same
 * orders (mrf/sweep_core.h), so every implementation sweeps sites
 * identically.
 */

#ifndef RSU_MRF_SCHEDULE_H
#define RSU_MRF_SCHEDULE_H

namespace rsu::mrf {

/** Site visit orders. */
enum class Schedule {
    Raster,       //!< row-major, sequential semantics
    Checkerboard, //!< all even-parity sites, then all odd-parity
};

/**
 * Invoke @p fn(x, y) for every site of rows [y0, y1) whose
 * checkerboard colour (x + y) mod 2 equals @p parity, in row-major
 * order. Row y's sites of one colour are the run x = (parity ^ y) & 1,
 * x + 2, ... < width — the run the chromatic runtime hands the sweep
 * core for each row of a shard's band, so shard boundaries never
 * change which sites a colour phase visits or in what order within a
 * row.
 */
template <typename Fn>
void
forEachSiteInRows(int width, int y0, int y1, int parity, Fn &&fn)
{
    for (int y = y0; y < y1; ++y)
        for (int x = (parity ^ y) & 1; x < width; x += 2)
            fn(x, y);
}

/**
 * Invoke @p fn(x, y) for every site of a width x height lattice in
 * the given schedule's order.
 */
template <typename Fn>
void
forEachSite(int width, int height, Schedule schedule, Fn &&fn)
{
    if (schedule == Schedule::Raster) {
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < width; ++x)
                fn(x, y);
        return;
    }
    for (int parity = 0; parity < 2; ++parity)
        forEachSiteInRows(width, 0, height, parity, fn);
}

} // namespace rsu::mrf

#endif // RSU_MRF_SCHEDULE_H
