#include "arch/cpu_model.h"

#include <algorithm>
#include <stdexcept>

#include "core/rsu_isa.h"

namespace rsu::arch {

CpuModel::CpuModel(const CpuConfig &config) : config_(config)
{
    if (config_.frequency_ghz <= 0.0)
        throw std::invalid_argument("CpuModel: bad frequency");
}

double
CpuModel::baselineSeconds(const Workload &w) const
{
    const double per_pixel =
        config_.overhead_cycles +
        w.num_labels * (config_.param_cycles_per_label +
                        config_.sample_cycles_per_label);
    return static_cast<double>(w.pixels()) * w.iterations *
           per_pixel / (config_.frequency_ghz * 1e9);
}

double
CpuModel::rsuSeconds(const Workload &w) const
{
    // The in-order core stalls for the RSU-G1's 7 + (M-1) cycle
    // evaluation or its instruction issue, whichever is longer;
    // operand writes overlap the tail of the previous evaluation
    // (software pipelining, section 6.1).
    const double rsu_wait = 7.0 + (w.num_labels - 1);
    const double issue = rsu::core::instructionsPerSample(w.num_labels);
    const double per_pixel =
        config_.rsu_overhead_cycles + std::max(issue, rsu_wait);
    return static_cast<double>(w.pixels()) * w.iterations *
           per_pixel / (config_.frequency_ghz * 1e9);
}

double
CpuModel::speedup(const Workload &w) const
{
    return baselineSeconds(w) / rsuSeconds(w);
}

} // namespace rsu::arch
