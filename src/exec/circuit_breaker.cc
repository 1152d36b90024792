#include "exec/circuit_breaker.h"

#include <algorithm>

#include "exec/cancellation.h"

namespace freqywm {

KeyCircuitBreaker::KeyCircuitBreaker(CircuitBreakerOptions options)
    : options_(std::move(options)) {}

int64_t KeyCircuitBreaker::Now() const {
  return options_.clock_nanos ? options_.clock_nanos() : MonotonicNanos();
}

Status KeyCircuitBreaker::Allow(std::string_view key) {
  MutexLock lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end() || !it->second.open) return Status::OK();
  if (Now() >= it->second.reopen_at_nanos) {
    // Half-open: this caller probes; the circuit stays open on paper so
    // a concurrent flood cannot all pass — the next Allow before a
    // recorded outcome pushes the probe window forward by one cooldown.
    it->second.reopen_at_nanos = Now() + options_.cooldown.count();
    return Status::OK();
  }
  ++rejections_;
  return Status::Unavailable("circuit open for key (cooldown active after " +
                             std::to_string(it->second.consecutive_failures) +
                             " consecutive failures)");
}

void KeyCircuitBreaker::RecordSuccess(std::string_view key) {
  MutexLock lock(mu_);
  RecordSuccessLocked(key);
}

void KeyCircuitBreaker::RecordFailure(std::string_view key) {
  MutexLock lock(mu_);
  RecordFailureLocked(key);
}

void KeyCircuitBreaker::RecordOutcomes(const std::vector<Outcome>& outcomes) {
  if (outcomes.empty()) return;
  MutexLock lock(mu_);
  for (const Outcome& outcome : outcomes) {
    if (outcome.failed) {
      RecordFailureLocked(outcome.key);
    } else {
      RecordSuccessLocked(outcome.key);
    }
  }
}

bool KeyCircuitBreaker::TracksAnyKey() const {
  MutexLock lock(mu_);
  return !keys_.empty();
}

void KeyCircuitBreaker::RecordSuccessLocked(std::string_view key) {
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  keys_.erase(it);
}

void KeyCircuitBreaker::RecordFailureLocked(std::string_view key) {
  auto [it, inserted] = keys_.emplace(std::string(key), KeyState{});
  KeyState& state = it->second;
  ++state.consecutive_failures;
  const uint32_t threshold = std::max(1u, options_.failure_threshold);
  if (state.consecutive_failures >= threshold) {
    if (!state.open) ++trips_;
    state.open = true;
    state.reopen_at_nanos = Now() + options_.cooldown.count();
  }
}

CircuitBreakerStats KeyCircuitBreaker::stats() const {
  MutexLock lock(mu_);
  CircuitBreakerStats out;
  out.trips = trips_;
  out.rejections = rejections_;
  for (const auto& [key, state] : keys_) {
    if (state.open) ++out.open_keys;
  }
  return out;
}

}  // namespace freqywm
