#include "exec/cancellation.h"

#include <limits>

namespace freqywm {

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Deadline Deadline::After(std::chrono::nanoseconds timeout) {
  const int64_t now = MonotonicNanos();
  const int64_t ticks = timeout.count();
  // Saturate instead of overflowing for absurd timeouts.
  const int64_t when =
      (ticks > std::numeric_limits<int64_t>::max() - now)
          ? std::numeric_limits<int64_t>::max()
          : now + (ticks > 0 ? ticks : 0);
  return Deadline(when, /*finite=*/true);
}

bool Deadline::expired() const {
  if (!finite_) return false;
  return MonotonicNanos() >= when_nanos_;
}

std::chrono::nanoseconds Deadline::remaining() const {
  if (!finite_) return std::chrono::nanoseconds::max();
  const int64_t left = when_nanos_ - MonotonicNanos();
  return std::chrono::nanoseconds(left > 0 ? left : 0);
}

}  // namespace freqywm
