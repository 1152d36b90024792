// Thread-safety of the `SchemeFactory` registry (ISSUE 2): concurrent
// registration, creation and enumeration must be race-free — the batch
// detection engine instantiates schemes from many threads. Run under
// ThreadSanitizer in CI (`-fsanitize=thread`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "api/freqywm_scheme.h"

namespace freqywm {
namespace {

TEST(SchemeFactoryConcurrencyTest, ParallelCreateAndEnumerate) {
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < kIters; ++i) {
        for (const std::string& name : SchemeFactory::RegisteredNames()) {
          auto scheme = SchemeFactory::Create(name);
          if (!scheme.ok() || scheme.value()->name().empty()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SchemeFactoryConcurrencyTest, ParallelRegistrationIsAtomic) {
  // Every thread races to register the same names; exactly one win per
  // name, and the loser sees InvalidArgument, never a torn registry.
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  std::vector<std::atomic<int>> wins(kNames);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wins, t] {
      for (int n = 0; n < kNames; ++n) {
        std::string name =
            "conc-scheme-" + std::to_string(n) + "-race";
        Status s = SchemeFactory::Register(
            name, [](const OptionBag& bag)
                -> Result<std::unique_ptr<WatermarkScheme>> {
              GenerateOptions o;
              FREQYWM_ASSIGN_OR_RETURN(o.seed, bag.GetU64("seed", 1));
              return std::unique_ptr<WatermarkScheme>(
                  std::make_unique<FreqyWmScheme>(o));
            });
        if (s.ok()) {
          wins[n].fetch_add(1);
        } else if (s.code() != StatusCode::kInvalidArgument) {
          ADD_FAILURE() << "unexpected status from thread " << t << ": "
                        << s;
        }
        // Whoever lost the race can still create the winner's scheme.
        auto created = SchemeFactory::Create(name);
        if (!created.ok()) ADD_FAILURE() << created.status();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int n = 0; n < kNames; ++n) {
    EXPECT_EQ(wins[n].load(), 1) << "name " << n;
  }
  // All racing names ended up registered exactly once.
  std::vector<std::string> names = SchemeFactory::RegisteredNames();
  for (int n = 0; n < kNames; ++n) {
    std::string name = "conc-scheme-" + std::to_string(n) + "-race";
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1);
  }
}

TEST(SchemeFactoryConcurrencyTest, CreateWhileRegistering) {
  // Mixed load: half the threads continuously create pre-registered
  // schemes while the other half registers fresh names.
  constexpr int kPairs = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < 50; ++i) {
        auto scheme = SchemeFactory::Create("freqywm");
        if (!scheme.ok()) failures.fetch_add(1);
      }
    });
    threads.emplace_back([&failures, p] {
      for (int i = 0; i < 10; ++i) {
        std::string name = "conc-mixed-" + std::to_string(p) + "-" +
                           std::to_string(i);
        // Like the race builder above, honor the bag's `seed`: suites
        // that sweep every registered name seed their embeds through it.
        Status s = SchemeFactory::Register(
            name, [](const OptionBag& bag)
                -> Result<std::unique_ptr<WatermarkScheme>> {
              GenerateOptions o;
              FREQYWM_ASSIGN_OR_RETURN(o.seed, bag.GetU64("seed", 1));
              return std::unique_ptr<WatermarkScheme>(
                  std::make_unique<FreqyWmScheme>(o));
            });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace freqywm
