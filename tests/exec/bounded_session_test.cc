// Bounded-session suite (DESIGN.md §14): `Submit`'s shed and
// backpressure policies over `BatchDetector::Session`'s pending
// queue — all-or-nothing typed sheds, blocking until a drain frees
// budget, interruption while blocked, and the determinism contract:
// suspects that are admitted produce verdicts byte-identical to an
// unthrottled session at any thread count. Also covers the key circuit
// breaker's session integration: an open circuit quarantines its column
// at PrepareKeys, and clean drains heal the breaker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/circuit_breaker.h"
#include "exec/prepared_key_cache.h"
#include "one_shot_reference.h"

namespace freqywm {
namespace {

using std::chrono::milliseconds;

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Embedded keys + suspects shared by the suite (built once; the
/// fixture never mutates them).
struct BoundedFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;

  BoundedFixture() {
    Histogram original = MakeHistogram(77);
    for (uint64_t seed : {501, 502}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(seed));
      auto scheme = SchemeFactory::Create("freqywm", bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    suspects.push_back(original);
    suspects.push_back(MakeHistogram(78));
  }
};

const BoundedFixture& Fixture() {
  static const BoundedFixture* fixture = new BoundedFixture();
  return *fixture;
}

std::vector<Histogram> Batch(size_t from, size_t count) {
  std::vector<Histogram> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Fixture().suspects[(from + i) % Fixture().suspects.size()]);
  }
  return out;
}

TEST(BoundedSessionTest, NoBudgetMeansTryAddNeverSheds) {
  BatchDetectOptions options;  // max_pending_suspects = 0: unbounded
  BatchDetector::Session session(options, Fixture().keys);
  EXPECT_TRUE(session.Submit(Batch(0, 100), SubmitPolicy::kShed, {}).ok());
  // Nor does a blocking submit wait, even with an expired deadline.
  EXPECT_TRUE(session
                  .Submit(Batch(0, 100), SubmitPolicy::kBlock,
                          InterruptContext{CancellationToken(),
                                           Deadline::Expired()})
                  .ok());
  EXPECT_EQ(session.pending_suspects(), 200u);
}

TEST(BoundedSessionTest, TryAddShedsAllOrNothingWhenBudgetFull) {
  BatchDetectOptions options;
  options.max_pending_suspects = 4;
  BatchDetector::Session session(options, Fixture().keys);

  ASSERT_TRUE(session.Submit(Batch(0, 3), SubmitPolicy::kShed, {}).ok());
  Status shed = session.Submit(Batch(0, 2), SubmitPolicy::kShed, {});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // All-or-nothing: the shed batch enqueued NOTHING.
  EXPECT_EQ(session.pending_suspects(), 3u);
  // A batch that fits still gets in.
  EXPECT_TRUE(session.Submit(Batch(0, 1), SubmitPolicy::kShed, {}).ok());
  EXPECT_EQ(session.pending_suspects(), 4u);
}

TEST(BoundedSessionTest, BoundedAddBlocksUntilDrainFreesBudget) {
  BatchDetectOptions options;
  options.max_pending_suspects = 2;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.Submit(Batch(0, 2), SubmitPolicy::kShed, {}).ok());

  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    Status status = session.Submit(Batch(2, 2), SubmitPolicy::kBlock, {});
    EXPECT_TRUE(status.ok()) << status;
    admitted.store(true);
  });

  // The producer is blocked: budget full.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(admitted.load());

  // Draining frees the whole budget and wakes the producer.
  auto verdicts = session.DrainChecked({}).verdicts;
  EXPECT_EQ(verdicts.size(), 2u);
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(session.pending_suspects(), 2u);
}

TEST(BoundedSessionTest, OversizedBatchShedsImmediately) {
  BatchDetectOptions options;
  options.max_pending_suspects = 2;
  BatchDetector::Session session(options, Fixture().keys);

  // 3 > budget 2 can never fit: immediate typed shed, no blocking.
  Status status = session.Submit(Batch(0, 3), SubmitPolicy::kBlock, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.pending_suspects(), 0u);
}

TEST(BoundedSessionTest, CancellationWhileBlockedEnqueuesNothing) {
  BatchDetectOptions options;
  options.max_pending_suspects = 1;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.Submit(Batch(0, 1), SubmitPolicy::kShed, {}).ok());

  CancellationSource source;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(30));
    source.Cancel();
  });
  Status status =
      session.Submit(Batch(1, 1), SubmitPolicy::kBlock,
                     InterruptContext{source.token(), Deadline()});
  canceller.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(session.pending_suspects(), 1u);
}

TEST(BoundedSessionTest, DeadlineWhileBlockedReturnsTypedStatus) {
  BatchDetectOptions options;
  options.max_pending_suspects = 1;
  BatchDetector::Session session(options, Fixture().keys);
  ASSERT_TRUE(session.Submit(Batch(0, 1), SubmitPolicy::kShed, {}).ok());

  Status status = session.Submit(
      Batch(1, 1), SubmitPolicy::kBlock,
      InterruptContext{CancellationToken(), Deadline::After(milliseconds(30))});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.pending_suspects(), 1u);
}

TEST(BoundedSessionTest, AdmittedVerdictsIdenticalToUnthrottledAnyThreads) {
  // Unthrottled reference: the one-shot `Detect` of every cell.
  const auto expected = OneShotVerdicts(Batch(0, 4), Fixture().keys);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    BatchDetectOptions options;
    options.num_threads = threads;
    options.max_pending_suspects = 4;
    BatchDetector::Session session(options, Fixture().keys);
    ASSERT_TRUE(session.Submit(Batch(0, 2), SubmitPolicy::kShed, {}).ok());
    ASSERT_TRUE(session.Submit(Batch(2, 2), SubmitPolicy::kBlock, {}).ok());
    SessionDrainResult result = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    // Byte-identical: bounded admission changes *whether* work enters
    // the queue, never what its drain computes.
    ASSERT_EQ(result.verdicts.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      for (size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BoundedSessionTest, OpenCircuitQuarantinesColumnAtPrepare) {
  auto breaker = std::make_shared<KeyCircuitBreaker>(CircuitBreakerOptions{});
  const std::string fingerprint =
      PreparedKeyCache::Fingerprint(Fixture().keys[0]);
  for (int i = 0; i < 3; ++i) breaker->RecordFailure(fingerprint);

  BatchDetectOptions options;
  options.circuit_breaker = breaker;
  BatchDetector::Session session(options, Fixture().keys);

  // Column 0 is quarantined (typed kUnavailable, the retryable code);
  // column 1 is untouched — quarantine is per key identity.
  ASSERT_EQ(session.key_statuses().size(), 2u);
  EXPECT_EQ(session.key_statuses()[0].code(), StatusCode::kUnavailable);
  EXPECT_TRUE(session.key_statuses()[1].ok());
  EXPECT_GE(breaker->stats().rejections, 1u);

  // The drain still completes: the poisoned column is default-rejected
  // and unevaluated, the healthy column fully evaluated.
  ASSERT_TRUE(session.Submit(Batch(0, 2), SubmitPolicy::kShed, {}).ok());
  SessionDrainResult result = session.DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  for (size_t i = 0; i < result.verdicts.size(); ++i) {
    EXPECT_EQ(result.evaluated[i * 2 + 0], 0);
    EXPECT_EQ(result.evaluated[i * 2 + 1], 1);
  }
}

TEST(BoundedSessionTest, CleanDrainHealsBreakerAfterCooldown) {
  int64_t now = 0;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 1;
  breaker_options.cooldown = std::chrono::seconds(1);
  breaker_options.clock_nanos = [&now] { return now; };
  auto breaker = std::make_shared<KeyCircuitBreaker>(breaker_options);

  const std::string fingerprint =
      PreparedKeyCache::Fingerprint(Fixture().keys[0]);
  breaker->RecordFailure(fingerprint);
  EXPECT_EQ(breaker->stats().open_keys, 1u);

  // Cooldown elapses: the next session's PrepareKeys probes the key,
  // preparation succeeds, and the clean drain records the success that
  // closes the circuit.
  now += 2'000'000'000;
  BatchDetectOptions options;
  options.circuit_breaker = breaker;
  BatchDetector::Session session(options, Fixture().keys);
  EXPECT_TRUE(session.key_statuses()[0].ok());
  ASSERT_TRUE(session.Submit(Batch(0, 1), SubmitPolicy::kShed, {}).ok());
  SessionDrainResult result = session.DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(breaker->stats().open_keys, 0u);
}

}  // namespace
}  // namespace freqywm
