// KeyCircuitBreaker suite (DESIGN.md §14): consecutive-failure trips,
// cooldown expiry under an injected clock, half-open probing, success
// resets, and the typed rejection contract (kUnavailable, the retryable
// code — the key may heal).

#include "exec/circuit_breaker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/secrets.h"
#include "crypto/secret.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {
namespace {

using std::chrono::seconds;

struct FakeClockBreaker {
  int64_t now_nanos = 0;

  KeyCircuitBreaker Make(uint32_t threshold, seconds cooldown) {
    CircuitBreakerOptions options;
    options.failure_threshold = threshold;
    options.cooldown = cooldown;
    options.clock_nanos = [this] { return now_nanos; };
    return KeyCircuitBreaker(std::move(options));
  }

  void AdvanceSeconds(int64_t s) { now_nanos += s * 1'000'000'000; }
};

TEST(CircuitBreakerTest, StaysClosedBelowThreshold) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(3, seconds(1));

  breaker.RecordFailure("key-a");
  breaker.RecordFailure("key-a");
  EXPECT_TRUE(breaker.Allow("key-a").ok());
  EXPECT_EQ(breaker.stats().trips, 0u);
  EXPECT_EQ(breaker.stats().open_keys, 0u);
}

TEST(CircuitBreakerTest, TripsAtThresholdAndRejectsTyped) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(3, seconds(1));

  for (int i = 0; i < 3; ++i) breaker.RecordFailure("key-a");
  Status rejected = breaker.Allow("key-a");
  ASSERT_FALSE(rejected.ok());
  // kUnavailable: the retryable code — the cooldown will expire and the
  // key may heal, unlike a permanent kResourceExhausted shed.
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);

  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.trips, 1u);
  EXPECT_EQ(stats.open_keys, 1u);
  EXPECT_EQ(stats.rejections, 1u);

  // Other keys are unaffected — quarantine is per key identity.
  EXPECT_TRUE(breaker.Allow("key-b").ok());
}

TEST(CircuitBreakerTest, CooldownExpiryAllowsOneProbe) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(1, seconds(1));

  breaker.RecordFailure("key-a");
  EXPECT_FALSE(breaker.Allow("key-a").ok());

  clock.AdvanceSeconds(2);
  // Half-open: the first caller probes; an immediate second caller is
  // still rejected (the probe window moved forward one cooldown).
  EXPECT_TRUE(breaker.Allow("key-a").ok());
  EXPECT_FALSE(breaker.Allow("key-a").ok());
}

TEST(CircuitBreakerTest, ProbeSuccessClosesCircuit) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(1, seconds(1));

  breaker.RecordFailure("key-a");
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(breaker.Allow("key-a").ok());
  breaker.RecordSuccess("key-a");

  // Fully healed: open_keys drops, failure streak resets — the next
  // single failure must not re-trip a threshold-2 breaker.
  EXPECT_EQ(breaker.stats().open_keys, 0u);
  EXPECT_TRUE(breaker.Allow("key-a").ok());
}

TEST(CircuitBreakerTest, ProbeFailureReopensForAnotherCooldown) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(1, seconds(1));

  breaker.RecordFailure("key-a");
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(breaker.Allow("key-a").ok());
  breaker.RecordFailure("key-a");  // the probe failed

  EXPECT_FALSE(breaker.Allow("key-a").ok());
  clock.AdvanceSeconds(2);
  EXPECT_TRUE(breaker.Allow("key-a").ok());  // next probe window
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailureStreak) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(3, seconds(1));

  breaker.RecordFailure("key-a");
  breaker.RecordFailure("key-a");
  breaker.RecordSuccess("key-a");  // streak broken
  breaker.RecordFailure("key-a");
  breaker.RecordFailure("key-a");
  EXPECT_TRUE(breaker.Allow("key-a").ok());
  EXPECT_EQ(breaker.stats().trips, 0u);
}

TEST(CircuitBreakerTest, ConcurrentRecordingIsSafe) {
  KeyCircuitBreaker breaker(CircuitBreakerOptions{});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&breaker, t] {
      const std::string key = "key-" + std::to_string(t % 2);
      for (int i = 0; i < 500; ++i) {
        (void)breaker.Allow(key);
        if (i % 3 == 0) {
          breaker.RecordFailure(key);
        } else {
          breaker.RecordSuccess(key);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // No crash/race (TSan) and the stats stay internally consistent.
  CircuitBreakerStats stats = breaker.stats();
  EXPECT_LE(stats.open_keys, 2u);
}

/// Calls `Allow` on every key of both breakers and compares the answers,
/// then their stats.
void ExpectSameState(KeyCircuitBreaker& a, KeyCircuitBreaker& b,
                     const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    EXPECT_EQ(a.Allow(key).ok(), b.Allow(key).ok()) << key;
  }
  const CircuitBreakerStats sa = a.stats();
  const CircuitBreakerStats sb = b.stats();
  EXPECT_EQ(sa.open_keys, sb.open_keys);
  EXPECT_EQ(sa.trips, sb.trips);
  EXPECT_EQ(sa.rejections, sb.rejections);
}

TEST(CircuitBreakerTest, RecordOutcomesEqualsPerKeyRecording) {
  FakeClockBreaker clock;
  KeyCircuitBreaker batched = clock.Make(2, seconds(1));
  KeyCircuitBreaker single = clock.Make(2, seconds(1));
  // Repeats, a trip, a success that heals and failures that resume.
  const std::vector<KeyCircuitBreaker::Outcome> outcomes = {
      {"key-a", true},  {"key-b", false}, {"key-a", true}, {"key-c", true},
      {"key-c", false}, {"key-c", true},  {"key-b", true}, {"key-d", false}};
  batched.RecordOutcomes(outcomes);
  batched.RecordOutcomes({});
  for (const KeyCircuitBreaker::Outcome& outcome : outcomes) {
    if (outcome.failed) {
      single.RecordFailure(outcome.key);
    } else {
      single.RecordSuccess(outcome.key);
    }
  }
  const std::vector<std::string> keys = {"key-a", "key-b", "key-c", "key-d"};
  ExpectSameState(batched, single, keys);
  // Same streaks too: one more failure each trips exactly the same keys.
  for (const std::string& key : keys) {
    batched.RecordFailure(key);
    single.RecordFailure(key);
  }
  ExpectSameState(batched, single, keys);
}

// A suspect and five key columns for the drain-feedback tests: four
// FreqyWM keys over the suspect's tokens and one unregistered scheme tag.
struct FeedbackFixture {
  Histogram suspect;
  std::vector<SchemeKey> keys;
  std::vector<std::string> fingerprints;
};

FeedbackFixture MakeFeedbackFixture() {
  FeedbackFixture fx;
  Rng rng(7);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 40000;
  fx.suspect = GeneratePowerLawHistogram(spec, rng);
  for (uint64_t k = 0; k < 4; ++k) {
    WatermarkSecrets secrets;
    secrets.r = GenerateSecret(256, 11 + k);
    secrets.z = 67;
    for (size_t p = 0; p < 10; ++p) {
      secrets.pairs.push_back(
          SecretPair{fx.suspect.entry(2 * p + k).token,
                     fx.suspect.entry(2 * p + k + 40).token});
    }
    fx.keys.push_back(SchemeKey{"freqywm", secrets.Serialize()});
  }
  fx.keys.push_back(SchemeKey{"no-such-scheme", "payload"});
  for (const SchemeKey& key : fx.keys) {
    fx.fingerprints.push_back(PreparedKeyCache::Fingerprint(key));
  }
  return fx;
}

TEST(CircuitBreakerTest, DrainFeedbackEqualsPerColumnRecording) {
  // A session drain records every column's outcome in one breaker call;
  // the state must equal a breaker fed the same outcomes column by column
  // (Allow per key at preparation, RecordSuccess per evaluated column).
  const FeedbackFixture fx = MakeFeedbackFixture();
  const Histogram& suspect = fx.suspect;
  const std::vector<SchemeKey>& keys = fx.keys;
  const std::vector<std::string>& fingerprints = fx.fingerprints;

  FakeClockBreaker clock;
  auto drained = std::make_shared<KeyCircuitBreaker>([&] {
    CircuitBreakerOptions options;
    options.failure_threshold = 3;
    options.cooldown = seconds(1);
    options.clock_nanos = [&clock] { return clock.now_nanos; };
    return options;
  }());
  KeyCircuitBreaker per_column = clock.Make(3, seconds(1));
  // History: key 0 two failures, key 1 one, key 2 open (quarantined).
  for (KeyCircuitBreaker* breaker : {drained.get(), &per_column}) {
    for (int f = 0; f < 2; ++f) breaker->RecordFailure(fingerprints[0]);
    breaker->RecordFailure(fingerprints[1]);
    for (int f = 0; f < 3; ++f) breaker->RecordFailure(fingerprints[2]);
  }

  BatchDetectOptions options;
  options.num_threads = 2;
  options.circuit_breaker = drained;
  BatchDetector::Session session(options, keys);
  ASSERT_TRUE(session.Submit({suspect}, SubmitPolicy::kShed, {}).ok());
  SessionDrainResult result = session.DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(session.key_statuses()[2].ok());  // quarantined

  for (size_t j = 0; j < 4; ++j) {
    if (per_column.Allow(fingerprints[j]).ok()) {
      per_column.RecordSuccess(fingerprints[j]);
    }
  }
  const std::vector<std::string> probe(fingerprints.begin(),
                                       fingerprints.begin() + 4);
  ExpectSameState(*drained, per_column, probe);
  for (const std::string& fingerprint : probe) {
    drained->RecordFailure(fingerprint);
    per_column.RecordFailure(fingerprint);
  }
  ExpectSameState(*drained, per_column, probe);
}

TEST(CircuitBreakerTest, TracksAnyKeyUntilSuccessClearsIt) {
  FakeClockBreaker clock;
  KeyCircuitBreaker breaker = clock.Make(2, seconds(1));
  EXPECT_FALSE(breaker.TracksAnyKey());
  breaker.RecordSuccess("key-a");  // untracked: no state appears
  EXPECT_FALSE(breaker.TracksAnyKey());
  breaker.RecordFailure("key-a");
  EXPECT_TRUE(breaker.TracksAnyKey());
  breaker.RecordSuccess("key-b");
  EXPECT_TRUE(breaker.TracksAnyKey());
  breaker.RecordSuccess("key-a");
  EXPECT_FALSE(breaker.TracksAnyKey());
  // An open circuit stays tracked through its cooldown and half-open
  // probe until a success closes it.
  for (int f = 0; f < 2; ++f) breaker.RecordFailure("key-a");
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(breaker.Allow("key-a").ok());
  EXPECT_TRUE(breaker.TracksAnyKey());
  breaker.RecordSuccess("key-a");
  EXPECT_FALSE(breaker.TracksAnyKey());
}

TEST(CircuitBreakerTest, CleanDrainStillClosesTheOneTrackedKey) {
  // A drain without cell errors skips the feedback only when the breaker
  // tracks no key. Here it tracks one failing key, so the drain's success
  // must reach it: the streak resets and one more failure stays below
  // the threshold of 2.
  const FeedbackFixture fx = MakeFeedbackFixture();
  FakeClockBreaker clock;
  auto breaker = std::make_shared<KeyCircuitBreaker>([&] {
    CircuitBreakerOptions options;
    options.failure_threshold = 2;
    options.cooldown = seconds(1);
    options.clock_nanos = [&clock] { return clock.now_nanos; };
    return options;
  }());
  breaker->RecordFailure(fx.fingerprints[1]);
  ASSERT_TRUE(breaker->TracksAnyKey());

  BatchDetectOptions options;
  options.num_threads = 2;
  options.circuit_breaker = breaker;
  BatchDetector::Session session(options, fx.keys);
  ASSERT_TRUE(session.key_statuses()[1].ok());
  ASSERT_TRUE(session.Submit({fx.suspect}, SubmitPolicy::kShed, {}).ok());
  SessionDrainResult result = session.DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.cell_errors.empty());

  EXPECT_FALSE(breaker->TracksAnyKey());
  breaker->RecordFailure(fx.fingerprints[1]);
  EXPECT_TRUE(breaker->Allow(fx.fingerprints[1]).ok());
  EXPECT_EQ(breaker->stats().trips, 0u);

  // With nothing tracked, a clean drain leaves the breaker untouched.
  breaker->RecordSuccess(fx.fingerprints[1]);
  ASSERT_TRUE(session.Submit({fx.suspect}, SubmitPolicy::kShed, {}).ok());
  ASSERT_TRUE(session.DrainChecked(InterruptContext{}).status.ok());
  EXPECT_FALSE(breaker->TracksAnyKey());
  EXPECT_EQ(breaker->stats().trips, 0u);
  EXPECT_EQ(breaker->stats().rejections, 0u);
}

}  // namespace
}  // namespace freqywm
