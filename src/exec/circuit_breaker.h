#ifndef FREQYWM_EXEC_CIRCUIT_BREAKER_H_
#define FREQYWM_EXEC_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace freqywm {

/// Configuration of a `KeyCircuitBreaker` (DESIGN.md §14).
struct CircuitBreakerOptions {
  /// Consecutive failures that trip a key's circuit open (floor of 1).
  uint32_t failure_threshold = 3;

  /// How long an open circuit rejects before allowing one probe.
  std::chrono::nanoseconds cooldown = std::chrono::seconds(1);

  /// Injectable monotonic clock in nanoseconds (the testing seam, like
  /// `AdmissionOptions::clock_nanos`). Null → the real monotonic clock,
  /// confined to circuit_breaker.cc behind the determinism allowlist.
  std::function<int64_t()> clock_nanos;
};

/// Counters of a `KeyCircuitBreaker` — the breaker gauges of the engine
/// health snapshot (exec/health.h).
struct CircuitBreakerStats {
  /// Circuits currently open (cooldown not yet elapsed).
  size_t open_keys = 0;
  /// Times any key's circuit tripped open.
  uint64_t trips = 0;
  /// `Allow` calls rejected by an open circuit.
  uint64_t rejections = 0;
};

/// A cooldown circuit breaker over key identities (DESIGN.md §14): keys
/// whose `Prepare` or `Detect` fail repeatedly are quarantined for a
/// cooldown instead of re-failing — and re-paying for — every drain. The
/// marketplace shape: one tenant's poisoned escrow entry (corrupt payload,
/// flaky out-of-tree scheme) keeps burning its preparation budget on
/// every session; the breaker caps that to one probe per cooldown.
///
/// States per key, keyed by any stable identity (the engine uses
/// `PreparedKeyCache::Fingerprint`):
///   - closed (default): `Allow` passes; `RecordFailure` counts
///     consecutive failures and trips the circuit at the threshold;
///   - open: `Allow` rejects with typed `kUnavailable` (the retryable
///     code — the quarantine is transient by construction) until the
///     cooldown elapses;
///   - half-open: after the cooldown one `Allow` passes as a probe; a
///     failure re-trips the full cooldown, a success closes the circuit.
///
/// Determinism: state depends only on the recorded success/failure
/// sequence and the injected clock — never on thread schedule. With the
/// default real clock the breaker gates only *whether* a key is probed;
/// verdict bytes of keys that run remain schedule-independent.
///
/// Thread-safe; one mutex over the key-state map (std::map, not
/// unordered, so any future iteration is ordered).
class KeyCircuitBreaker {
 public:
  explicit KeyCircuitBreaker(CircuitBreakerOptions options = {});

  KeyCircuitBreaker(const KeyCircuitBreaker&) = delete;
  KeyCircuitBreaker& operator=(const KeyCircuitBreaker&) = delete;

  /// OK when `key` may proceed (closed, or half-open probe); typed
  /// `kUnavailable` while the circuit is open.
  [[nodiscard]] Status Allow(std::string_view key);

  /// Resets `key`'s consecutive-failure count and closes its circuit.
  void RecordSuccess(std::string_view key);

  /// Counts a failure; at `failure_threshold` consecutive failures the
  /// circuit trips open for `cooldown` (a half-open probe failure
  /// re-trips immediately).
  void RecordFailure(std::string_view key);

  /// One key's outcome for `RecordOutcomes`.
  struct Outcome {
    std::string_view key;
    bool failed = false;
  };

  /// Records `outcomes` in order under one lock acquisition — the state
  /// afterwards equals calling `RecordFailure`/`RecordSuccess` for each in
  /// turn. The batch engine feeds a whole drain's columns back this way.
  void RecordOutcomes(const std::vector<Outcome>& outcomes);

  /// True while any key has state: failures counted since its last
  /// success, or an open or half-open circuit. When false, a success
  /// changes nothing.
  bool TracksAnyKey() const;

  CircuitBreakerStats stats() const;

  const CircuitBreakerOptions& options() const { return options_; }

 private:
  struct KeyState {
    uint32_t consecutive_failures = 0;
    bool open = false;
    /// When an open circuit next allows a probe (clock nanoseconds).
    int64_t reopen_at_nanos = 0;
  };

  int64_t Now() const;
  void RecordSuccessLocked(std::string_view key) REQUIRES(mu_);
  void RecordFailureLocked(std::string_view key) REQUIRES(mu_);

  const CircuitBreakerOptions options_;
  mutable Mutex mu_;
  std::map<std::string, KeyState, std::less<>> keys_ GUARDED_BY(mu_);
  uint64_t trips_ GUARDED_BY(mu_) = 0;
  uint64_t rejections_ GUARDED_BY(mu_) = 0;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_CIRCUIT_BREAKER_H_
