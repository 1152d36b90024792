// TenantContext suite (DESIGN.md §14): per-tenant quotas with typed
// kResourceExhausted rejections (escrow, sessions, in-flight suspects),
// the RAII session lifecycle with unit accounting, the health snapshot,
// and the isolation contract of the acceptance criteria: one tenant
// saturating its quotas — or holding keys whose circuits are open —
// cannot change another tenant's verdicts, cache contents or admission
// outcomes.

#include "analysis/tenant.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "../exec/one_shot_reference.h"

namespace freqywm {
namespace {

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

struct TenantFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;

  TenantFixture() {
    Histogram original = MakeHistogram(91);
    for (uint64_t seed : {601, 602}) {
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
  }
};

const TenantFixture& Fixture() {
  static const TenantFixture* fixture = new TenantFixture();
  return *fixture;
}

std::vector<Histogram> Batch(size_t from, size_t count) {
  std::vector<Histogram> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Fixture().suspects[(from + i) % Fixture().suspects.size()]);
  }
  return out;
}

void EscrowAll(TenantContext& tenant) {
  for (size_t i = 0; i < Fixture().keys.size(); ++i) {
    ASSERT_TRUE(
        tenant.Escrow("buyer-" + std::to_string(i), Fixture().keys[i]).ok());
  }
}

TEST(TenantTest, EscrowQuotaIsTypedResourceExhausted) {
  TenantQuotas quotas;
  quotas.max_escrowed_keys = 1;
  TenantContext tenant("acme", quotas);

  ASSERT_TRUE(tenant.Escrow("buyer-0", Fixture().keys[0]).ok());
  Status over = tenant.Escrow("buyer-1", Fixture().keys[1]);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tenant.escrowed_keys(), 1u);
}

TEST(TenantTest, SessionQuotaFreesOnDestruction) {
  TenantQuotas quotas;
  quotas.max_concurrent_sessions = 1;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto first = tenant.OpenSession();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(tenant.open_sessions(), 1u);

  auto second = tenant.OpenSession();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  first = Status::ResourceExhausted("drop");  // destroys the session
  EXPECT_EQ(tenant.open_sessions(), 0u);
  EXPECT_TRUE(tenant.OpenSession().ok());
}

TEST(TenantTest, SubmitDrainLifecycleAccountsUnits) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 8;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());

  EngineHealthSnapshot mid = tenant.Health();
  EXPECT_EQ(mid.admission.in_flight, 3u);
  EXPECT_EQ(mid.session_queue_depth, 3u);
  EXPECT_EQ(mid.open_sessions, 1u);

  SessionDrainResult result =
      session.value()->DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.verdicts.size(), 3u);

  // Each drained row returned one admitted unit.
  EngineHealthSnapshot after = tenant.Health();
  EXPECT_EQ(after.admission.in_flight, 0u);
  EXPECT_EQ(after.session_queue_depth, 0u);
}

TEST(TenantTest, InFlightQuotaShedsTypedAndRecoversAfterDrain) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 2;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);

  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->TrySubmit(Batch(0, 2)).ok());

  Status shed = session.value()->TrySubmit(Batch(2, 1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // The shed enqueued nothing and leased nothing.
  EXPECT_EQ(session.value()->pending_suspects(), 2u);
  EXPECT_EQ(tenant.Health().admission.in_flight, 2u);

  (void)session.value()->DrainChecked(InterruptContext{});
  EXPECT_TRUE(session.value()->TrySubmit(Batch(2, 1)).ok());
}

TEST(TenantTest, AbandonedSessionReturnsLeasedUnits) {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = 2;
  TenantContext tenant("acme", quotas);
  EscrowAll(tenant);
  {
    auto session = tenant.OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->TrySubmit(Batch(0, 2)).ok());
    // Abandoned without a drain.
  }
  EXPECT_EQ(tenant.Health().admission.in_flight, 0u);
  EXPECT_EQ(tenant.open_sessions(), 0u);
}

TEST(TenantTest, TrySubmitRacingDrainsLeavesNoUnitsInFlight) {
  // Submitters race a draining thread. A drain that claims rows between
  // their enqueue and the recording of their permit must still return
  // their units, so once everything is drained nothing stays in flight.
  // No keys are escrowed, so a drain is only the claim and the release,
  // as short as the window it must land in; more submitters than cores
  // get preempted mid-submit.
  constexpr size_t kSubmitters = 8;
  constexpr size_t kSubmitsEach = 20000;
  TenantContext tenant("acme");
  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  TenantSession& s = *session.value();

  std::atomic<size_t> running{kSubmitters};
  std::atomic<size_t> failed{0};
  std::thread drainer([&] {
    while (running.load() > 0) (void)s.DrainChecked(InterruptContext{});
  });
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kSubmitsEach; ++i) {
        if (!s.TrySubmit(std::vector<Histogram>(1)).ok()) ++failed;
      }
      --running;
    });
  }
  for (std::thread& t : submitters) t.join();
  drainer.join();
  (void)s.DrainChecked(InterruptContext{});

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(s.pending_suspects(), 0u);
  EXPECT_EQ(tenant.Health().admission.in_flight, 0u);
}

TEST(TenantTest, BlockingSubmitRacingDrainsLeavesNoUnitsInFlight) {
  // The blocking twin of the race above. `Submit` cannot hold the
  // session's permit lock across its blocking enqueue, so a drain may
  // claim and release its rows before the permit is recorded; the rows
  // it released ahead must be paid off when the permit lands.
  constexpr size_t kSubmitters = 8;
  constexpr size_t kSubmitsEach = 20000;
  TenantContext tenant("acme");
  auto session = tenant.OpenSession();
  ASSERT_TRUE(session.ok());
  TenantSession& s = *session.value();

  std::atomic<size_t> running{kSubmitters};
  std::atomic<size_t> failed{0};
  std::thread drainer([&] {
    while (running.load() > 0) (void)s.DrainChecked(InterruptContext{});
  });
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kSubmitsEach; ++i) {
        if (!s.Submit(std::vector<Histogram>(1), InterruptContext{}).ok()) {
          ++failed;
        }
      }
      --running;
    });
  }
  for (std::thread& t : submitters) t.join();
  drainer.join();
  (void)s.DrainChecked(InterruptContext{});

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(s.pending_suspects(), 0u);
  EXPECT_EQ(tenant.Health().admission.in_flight, 0u);
}

TEST(TenantTest, CacheSliceIsSizedByQuotaAndPrivate) {
  TenantQuotas quotas;
  quotas.max_cache_entries = 7;
  TenantContext tenant("acme", quotas);
  EXPECT_EQ(tenant.key_cache()->capacity(), 7u);

  TenantContext other("globex");
  EXPECT_EQ(other.key_cache()->capacity(),
            PreparedKeyCache::kDefaultCapacity);
  EXPECT_NE(tenant.key_cache().get(), other.key_cache().get());
}

TEST(TenantTest, VerdictsIdenticalToUntenantedSessionAnyThreads) {
  // Untenanted reference: the one-shot `Detect` of every cell.
  const auto expected = OneShotVerdicts(Batch(0, 3), Fixture().keys);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    TenantQuotas quotas;
    quotas.max_in_flight_suspects = 16;
    quotas.max_pending_suspects = 16;
    TenantContext tenant("acme", quotas);
    EscrowAll(tenant);
    auto session = tenant.OpenSession(threads);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());
    SessionDrainResult result =
        session.value()->DrainChecked(InterruptContext{});
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.verdicts.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      for (size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(TenantTest, SaturatedOrPoisonedTenantCannotPerturbAnother) {
  // Tenant A: tiny quotas, saturated, and every key's circuit forced
  // open — the worst neighbor the acceptance criteria describe.
  TenantQuotas a_quotas;
  a_quotas.max_in_flight_suspects = 1;
  a_quotas.max_concurrent_sessions = 1;
  a_quotas.breaker_failure_threshold = 1;
  TenantContext tenant_a("noisy", a_quotas);
  EscrowAll(tenant_a);
  for (const SchemeKey& key : Fixture().keys) {
    tenant_a.circuit_breaker()->RecordFailure(
        PreparedKeyCache::Fingerprint(key));
  }
  auto a_session = tenant_a.OpenSession();
  ASSERT_TRUE(a_session.ok());
  ASSERT_TRUE(a_session.value()->TrySubmit(Batch(0, 1)).ok());
  // A is now fully saturated: in-flight quota consumed, session quota
  // consumed, every key quarantined.
  EXPECT_EQ(a_session.value()->key_statuses()[0].code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(a_session.value()->TrySubmit(Batch(0, 1)).ok());
  EXPECT_FALSE(tenant_a.OpenSession().ok());

  // Tenant B (same escrowed keys): verdicts must equal the untenanted
  // reference, its key columns must be healthy, and its admissions must
  // succeed — A's saturation and quarantines are invisible to B.
  const auto expected = OneShotVerdicts(Batch(0, 3), Fixture().keys);

  TenantContext tenant_b("quiet");
  EscrowAll(tenant_b);
  auto b_session = tenant_b.OpenSession();
  ASSERT_TRUE(b_session.ok());
  for (const Status& status : b_session.value()->key_statuses()) {
    EXPECT_TRUE(status.ok()) << status;
  }
  ASSERT_TRUE(
      b_session.value()->Submit(Batch(0, 3), InterruptContext{}).ok());
  SessionDrainResult result =
      b_session.value()->DrainChecked(InterruptContext{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.verdicts.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_TRUE(result.verdicts[i][j] == expected[i][j])
          << "cell (" << i << "," << j << ")";
    }
  }

  // B's cache slice saw only B's traffic (its own key preparations);
  // B's admission counters saw only B's submissions.
  EXPECT_EQ(tenant_b.Health().admission.total_shed(), 0u);
  EXPECT_EQ(tenant_b.Health().breaker.open_keys, 0u);
  EXPECT_EQ(tenant_b.key_cache()->stats().size, Fixture().keys.size());
}

TEST(TenantTest, TraceSuspectsMatchesRegistrySemantics) {
  TenantContext tenant("acme");
  EscrowAll(tenant);

  FingerprintRegistry reference;
  for (size_t i = 0; i < Fixture().keys.size(); ++i) {
    ASSERT_TRUE(
        reference.Register("buyer-" + std::to_string(i), Fixture().keys[i])
            .ok());
  }
  const auto expected = reference.TraceSuspects(Batch(0, 2));
  const auto actual = tenant.TraceSuspects(Batch(0, 2));
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(actual.ok()) << actual.status();
  ASSERT_EQ(actual.value().size(), expected.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    EXPECT_EQ(actual.value()[i], expected.value()[i]) << "suspect " << i;
  }
}

}  // namespace
}  // namespace freqywm
