/**
 * @file
 * String-keyed workload registry.
 *
 * Serving callers (examples/runtime_server, the benches, tests)
 * instantiate problems by name — "segmentation", "motion", ... —
 * without compiling against any per-workload factory: the registry
 * is the indirection that lets one server binary run every scenario
 * the repo knows about.
 *
 * builtin() is the only registry: a fixed table of the five
 * standard workloads (factories.h). Adding an application means one
 * factory and one row in that table.
 */

#ifndef RSU_WORKLOAD_REGISTRY_H
#define RSU_WORKLOAD_REGISTRY_H

#include <string>
#include <utility>
#include <vector>

#include "workload/factories.h"
#include "workload/problem.h"

namespace rsu::workload {

/** The fixed name -> problem-factory table, in registration order. */
class WorkloadRegistry
{
  public:
    bool contains(const std::string &name) const;

    /**
     * Instantiate workload @p name with @p options.
     * @throws std::out_of_range naming the known workloads when
     *         @p name is not registered.
     */
    InferenceProblem make(const std::string &name,
                          const SceneOptions &options = {}) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of workload @p name.
     * @throws std::out_of_range when unknown. */
    const std::string &description(const std::string &name) const;

    /**
     * The registry of the built-in workloads: segmentation, motion,
     * stereo, denoise, synthetic.
     */
    static const WorkloadRegistry &builtin();

  private:
    struct Entry
    {
        std::string name;
        std::string description;
        InferenceProblem (*make)(const SceneOptions &);
    };

    explicit WorkloadRegistry(std::vector<Entry> entries)
        : entries_(std::move(entries))
    {
    }

    /** @throws std::out_of_range when @p name is unknown. */
    const Entry &find(const std::string &name) const;

    std::vector<Entry> entries_;
};

} // namespace rsu::workload

#endif // RSU_WORKLOAD_REGISTRY_H
