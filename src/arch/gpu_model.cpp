#include "arch/gpu_model.h"

#include <cmath>
#include <stdexcept>

#include "arch/power_area.h"
#include "core/rsu_isa.h"

namespace rsu::arch {

std::string
variantName(GpuVariant variant)
{
    switch (variant) {
      case GpuVariant::Baseline:
        return "GPU";
      case GpuVariant::Optimized:
        return "Opt GPU";
      case GpuVariant::RsuG1:
        return "RSU-G1";
      case GpuVariant::RsuG4:
        return "RSU-G4";
    }
    throw std::invalid_argument("variantName: bad variant");
}

GpuModel::GpuModel(const GpuConfig &config) : config_(config)
{
    if (config_.lanes < 1 || config_.frequency_ghz <= 0.0 ||
        config_.mem_bw_gbs <= 0.0)
        throw std::invalid_argument("GpuModel: bad configuration");
}

double
GpuModel::cyclesPerPixel(const Workload &w, GpuVariant variant) const
{
    const GpuKernelCosts &c = w.gpu;
    const double m = static_cast<double>(w.num_labels);
    const double rsu_fixed = c.rsu_overhead_cycles +
                             rsu::core::instructionsPerSample(w.num_labels);
    switch (variant) {
      case GpuVariant::Baseline:
        return c.overhead_cycles + m * c.label_cycles;
      case GpuVariant::Optimized:
        return c.overhead_cycles + m * c.label_cycles_opt;
      case GpuVariant::RsuG1:
        return rsu_fixed + std::ceil(m / 1.0) * c.rsu_slot_cycles;
      case GpuVariant::RsuG4:
        return rsu_fixed + std::ceil(m / 4.0) * c.rsu_slot_cycles;
    }
    throw std::invalid_argument("cyclesPerPixel: bad variant");
}

double
GpuModel::occupancy(const Workload &w) const
{
    const double p = static_cast<double>(w.pixels());
    return p / (p + w.gpu.occupancy_p0);
}

double
GpuModel::iterationSeconds(const Workload &w, GpuVariant variant) const
{
    const double compute_s =
        static_cast<double>(w.pixels()) * cyclesPerPixel(w, variant) /
        (static_cast<double>(config_.lanes) * config_.frequency_ghz *
         1e9 * occupancy(w));
    // Memory floor: no variant can beat streaming the per-iteration
    // working set at DRAM bandwidth.
    const double memory_s =
        static_cast<double>(w.pixels()) * w.bytes_per_pixel /
        (config_.mem_bw_gbs * 1e9);
    return std::max(compute_s, memory_s);
}

double
GpuModel::totalSeconds(const Workload &w, GpuVariant variant) const
{
    return iterationSeconds(w, variant) * w.iterations;
}

double
GpuModel::speedup(const Workload &w, GpuVariant variant,
                  GpuVariant reference) const
{
    return totalSeconds(w, reference) / totalSeconds(w, variant);
}

double
GpuModel::rsuPowerW(int feature_nm) const
{
    const RsuBudget unit = RsuPowerAreaModel::project(
        feature_nm, config_.frequency_ghz * 1000.0);
    return RsuPowerAreaModel::systemPowerW(unit, config_.lanes);
}

} // namespace rsu::arch
