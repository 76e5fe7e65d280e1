/**
 * @file
 * In-memory span trace of one benchmark run.
 *
 * A span is one call from the benchmark into a layer of the program:
 * a name ("mrf.sweep.table", "runtime.engine.job", ...), start and
 * end on the steady clock, the span that caused it (0 = none), the
 * job it belongs to (0 = none), and numeric attributes carrying the
 * counts measured at the same boundary (sites updated, simulated
 * cycles, ...). Spans are kept in memory while the run measures and
 * written once at exit; the per-layer metrics are then derived from
 * the written file (layers.h), never from in-memory state.
 *
 * File format (text, one span per line, tab-separated):
 *
 *     id  parent  job  name  start_ns  end_ns  key=value;key=value
 *
 * Lines starting with '#' are comments (the run's environment).
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
int64_t nowNs();

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t job = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> attrs;

    double seconds() const { return (end_ns - start_ns) * 1e-9; }

    /** Attribute @p key, or @p fallback when absent. */
    double attr(const std::string &key, double fallback = 0.0) const;
};

/** Thread-safe span sink; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span id (ids are never 0). */
    uint64_t newId() { return next_id_.fetch_add(1); }

    /** Keep @p span (no-op when disabled). */
    void record(Span span);

    std::size_t size() const;

    /** Write every span, preceded by @p header comment lines.
     * @throws std::runtime_error when the file cannot be written */
    void write(const std::string &path,
               const std::vector<std::string> &header) const;

  private:
    bool enabled_;
    std::atomic<uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Span timed from construction to destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, uint64_t parent = 0,
               uint64_t job = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }
    void set(std::string key, double value);

  private:
    Tracer &tracer_;
    Span span_;
};

/** Parse a file written by Tracer::write.
 * @throws std::runtime_error on an unreadable file or bad line */
std::vector<Span> readTrace(const std::string &path);

/**
 * Self time of every span, by id: its duration minus the part of
 * its interval covered by its children (the union of their
 * intervals, clipped to the parent's).
 */
std::unordered_map<uint64_t, double>
selfSeconds(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
