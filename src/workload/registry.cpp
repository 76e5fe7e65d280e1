#include "workload/registry.h"

#include <algorithm>
#include <stdexcept>

namespace rsu::workload {

bool
WorkloadRegistry::contains(const std::string &name) const
{
    return std::ranges::any_of(
        entries_, [&](const Entry &entry) { return entry.name == name; });
}

InferenceProblem
WorkloadRegistry::make(const std::string &name,
                       const SceneOptions &options) const
{
    return find(name).make(options);
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.name);
    return out;
}

const std::string &
WorkloadRegistry::description(const std::string &name) const
{
    return find(name).description;
}

const WorkloadRegistry &
WorkloadRegistry::builtin()
{
    static const WorkloadRegistry registry({
        {"segmentation",
         "piecewise-constant region labelling (paper flagship)",
         makeSegmentation},
        {"motion", "dense motion estimation, vector labels (7x7 window)",
         makeMotion},
        {"stereo", "rectified-pair disparity estimation", makeStereo},
        {"denoise", "quantized-intensity image restoration", makeDenoise},
        {"synthetic", "seeded random-field serving/benchmark workload",
         makeSynthetic},
    });
    return registry;
}

const WorkloadRegistry::Entry &
WorkloadRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry.name == name)
            return entry;
    std::string known;
    for (const auto &entry : entries_)
        known += (known.empty() ? "" : ", ") + entry.name;
    throw std::out_of_range("WorkloadRegistry: unknown workload '" +
                            name + "' (known: " + known + ")");
}

} // namespace rsu::workload
