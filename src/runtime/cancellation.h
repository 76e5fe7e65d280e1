/**
 * @file
 * Cooperative cancellation and the engine's error taxonomy.
 *
 * A CancellationToken is a shared flag the InferenceEngine checks
 * once before every sweep — never mid-sweep — so a cancelled job
 * always stops at a well-defined point: a job observed to cancel
 * after sweep k holds exactly k sweeps' worth of labels. A
 * default-constructed token is *inert* (no allocation, never
 * cancellable); checking it is a single null-pointer test, so jobs
 * that never cancel cost nothing measurable (pinned by the
 * robustness bench).
 *
 * EngineError is the typed failure vocabulary of the serving layer:
 * every way the engine refuses, abandons, or loses a job maps to one
 * EngineErrorCode, so callers can switch on code() instead of
 * parsing what() strings.
 */

#ifndef RSU_RUNTIME_CANCELLATION_H
#define RSU_RUNTIME_CANCELLATION_H

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

namespace rsu::runtime {

/** Shared cooperative-cancellation flag. Copies alias one flag. */
class CancellationToken
{
  public:
    /** Inert token: cancelled() is always false, cancel() a no-op. */
    CancellationToken() = default;

    /** A live token that cancel() can trip. */
    static CancellationToken
    make()
    {
        CancellationToken t;
        t.flag_ = std::make_shared<std::atomic<bool>>(false);
        return t;
    }

    /** True when this token can ever report cancellation. */
    bool cancellable() const { return flag_ != nullptr; }

    /** Has cancel() been called on this token (or a copy)? */
    bool
    cancelled() const
    {
        return flag_ && flag_->load(std::memory_order_relaxed);
    }

    /** Request cancellation. Safe from any thread; no-op if inert. */
    void
    cancel()
    {
        if (flag_)
            flag_->store(true, std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/** Every way the engine refuses, abandons, or loses a job. */
enum class EngineErrorCode
{
    QueueFull,        //!< admission rejected under backpressure
    DeadlineExceeded, //!< deadline passed before the job finished
    Cancelled,        //!< cancelled by the caller or by shutdown
};

/** Short stable name for an error code (logs, tests). */
inline const char *
engineErrorCodeName(EngineErrorCode code)
{
    switch (code) {
    case EngineErrorCode::QueueFull:
        return "QueueFull";
    case EngineErrorCode::DeadlineExceeded:
        return "DeadlineExceeded";
    case EngineErrorCode::Cancelled:
        return "Cancelled";
    }
    return "Unknown";
}

/** Typed engine failure; code() selects, what() explains. */
class EngineError : public std::runtime_error
{
  public:
    EngineError(EngineErrorCode code, const std::string &message)
        : std::runtime_error(std::string(engineErrorCodeName(code)) +
                             ": " + message),
          code_(code)
    {
    }

    EngineErrorCode code() const { return code_; }

  private:
    EngineErrorCode code_;
};

} // namespace rsu::runtime

#endif // RSU_RUNTIME_CANCELLATION_H
