#ifndef FREQYWM_EXEC_CANCELLATION_H_
#define FREQYWM_EXEC_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace freqywm {

/// Cooperative cancellation for long-running engine operations
/// (DESIGN.md §13). The model is the usual source/token split:
///
///   - a `CancellationSource` is held by whoever may abort the work
///     (a test, a caller-side watchdog, eventually the RPC layer);
///   - `CancellationToken` copies of it ride on `ExecContext` into the
///     engine, which polls `cancelled()` at shard boundaries.
///
/// Cancellation is a level, not an edge: once requested it stays
/// requested, every token observes it, and there is no reset. Workers
/// never receive signals or exceptions — they notice the flag at the
/// next checkpoint and unwind by returning `Status::Cancelled`. A
/// default-constructed token is "never cancelled" and costs one
/// pointer test to poll, so `ExecContext{}` aggregate initialization
/// keeps working unchanged.
class CancellationToken {
 public:
  /// A token that can never be cancelled.
  CancellationToken() = default;

  /// True once the owning source requested cancellation.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// The requesting side of a cancellation pair. Thread-safe: `Cancel` may
/// race with any number of `cancelled()` polls.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Returns a token observing this source. Tokens stay valid after the
  /// source is destroyed (they share ownership of the flag).
  CancellationToken token() const { return CancellationToken(flag_); }

  /// Requests cancellation. Idempotent.
  void Cancel() { flag_->store(true, std::memory_order_release); }

  /// True if `Cancel` has been called.
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The process-wide monotonic clock in nanoseconds: the one clock read of
/// the library (determinism allowlist). `Deadline` reads it, and so do the
/// defaults behind `AdmissionOptions::clock_nanos` and
/// `CircuitBreakerOptions::clock_nanos`. A clock reading only ever gates
/// *whether* work runs or finishes, never *what* it computes.
int64_t MonotonicNanos();

/// An absolute point on the process-wide monotonic clock by which an
/// operation must finish. Stored as raw nanoseconds so the header stays
/// free of clock reads (they go through `MonotonicNanos`); a deadline never
/// alters *what* the engine computes, only *whether* it finishes —
/// results produced before expiry are byte-identical to an undeadlined
/// run. Default-constructed is infinite ("no deadline") and `expired()`
/// then costs one bool test, no clock read.
class Deadline {
 public:
  /// No deadline; never expires.
  Deadline() = default;

  /// A deadline `timeout` from now. Non-positive timeouts yield an
  /// already-expired deadline.
  static Deadline After(std::chrono::nanoseconds timeout);

  /// A deadline that is already expired (useful in tests).
  static Deadline Expired() { return After(std::chrono::nanoseconds(0)); }

  /// True if this deadline can ever expire.
  bool finite() const { return finite_; }

  /// True once the monotonic clock passed the deadline. Always false for
  /// the infinite default.
  bool expired() const;

  /// Time remaining until expiry, clamped at zero. Returns
  /// `nanoseconds::max()` for the infinite default.
  std::chrono::nanoseconds remaining() const;

 private:
  Deadline(int64_t when_nanos, bool finite)
      : when_nanos_(when_nanos), finite_(finite) {}

  int64_t when_nanos_ = 0;
  bool finite_ = false;
};

/// The pair every cooperative checkpoint consults, bundled so shard
/// loops take one argument instead of two. `Check()` maps the first
/// observed interruption to its typed status — cancellation wins over
/// deadline expiry when both hold, so a caller that cancels an already
/// late operation sees the status matching its own action.
struct InterruptContext {
  CancellationToken cancel;
  Deadline deadline;

  /// True if either interruption source fired. The common
  /// fully-default case short-circuits without a clock read.
  bool interrupted() const {
    return cancel.cancelled() || deadline.expired();
  }

  /// OK, or the typed status of the first interruption source that
  /// fired.
  Status Check() const {
    if (cancel.cancelled()) {
      return Status::Cancelled("operation cancelled");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded("deadline expired");
    }
    return Status::OK();
  }
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_CANCELLATION_H_
