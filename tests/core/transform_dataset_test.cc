// Identity suite for the sharded data transformation (DESIGN.md §7): the
// exec-aware `TransformDataset(original, source, target, rng, exec)` must
// return the serial oracle `TransformDataset(original, target, rng)`'s
// tokens and leave `rng` in the oracle's state, at every pool size, on
// real scheme targets and on the edge cases of its five phases.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

// 0 means the serial context (ThreadPool(0) would auto-size instead).
constexpr size_t kWorkerCounts[] = {0, 1, 2, 7};

// Large enough that 7 workers plus the caller get eight chunks of at
// least the sharding threshold (1 << 14 rows).
constexpr size_t kRows = 160000;

Dataset MakeDataset(uint64_t seed, size_t tokens, size_t rows) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = rows;
  spec.alpha = 0.7;
  return GeneratePowerLawDataset(spec, rng);
}

Histogram FromCounts(std::vector<HistogramEntry> entries) {
  Result<Histogram> hist = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(hist.ok()) << hist.status();
  return hist.ok() ? std::move(hist).value() : Histogram();
}

/// Runs the oracle and the sharded overload from the same seed at every
/// worker count and expects equal tokens and an equal next draw.
void ExpectMatchesOracle(const Dataset& original, const Histogram& source,
                         const Histogram& target, uint64_t seed,
                         const std::string& label) {
  Rng oracle_rng(seed);
  const Dataset expected = TransformDataset(original, target, oracle_rng);
  const uint64_t expected_next = oracle_rng.NextU64();
  for (size_t workers : kWorkerCounts) {
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    Rng rng(seed);
    const Dataset actual = TransformDataset(original, source, target, rng,
                                            ExecContext(pool.get()));
    EXPECT_TRUE(actual.tokens() == expected.tokens())
        << label << ", workers=" << workers;
    EXPECT_EQ(rng.NextU64(), expected_next)
        << label << ", workers=" << workers;
  }
}

TEST(ShardedTransformTest, MatchesOracleOnEverySchemeTarget) {
  const Dataset original = MakeDataset(41, 200, kRows);
  const Histogram source = Histogram::FromDataset(original);
  uint64_t seed = 42;
  for (const std::string& name : SchemeFactory::RegisteredNames()) {
    OptionBag bag;
    bag.Set("seed", "42");
    auto scheme = SchemeFactory::Create(name, bag);
    ASSERT_TRUE(scheme.ok()) << name << ": " << scheme.status();
    auto outcome = scheme.value()->Embed(source);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status();
    ExpectMatchesOracle(original, source, outcome.value().watermarked,
                        ++seed, name);
  }
}

TEST(ShardedTransformTest, MatchesOracleOnRandomTargets) {
  // Random mixes of growing, shrinking, unchanged, dropped-from-target and
  // new tokens; several seeds so the dropped rows and slots land
  // differently against the chunk boundaries each time.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset original = MakeDataset(100 + seed, 60, kRows);
    const Histogram source = Histogram::FromDataset(original);
    Rng rng(seed);
    std::vector<HistogramEntry> entries;
    for (const HistogramEntry& e : source.entries()) {
      const uint64_t roll = rng.UniformU64(5);
      if (roll == 0) continue;  // absent from the target: untouched
      uint64_t count = e.count;
      if (roll == 1) count += rng.UniformU64(e.count + 1);
      if (roll == 2) count = 1 + rng.UniformU64(e.count);
      entries.push_back(HistogramEntry{e.token, count});
    }
    entries.push_back(HistogramEntry{"new-token", 1 + rng.UniformU64(5000)});
    ExpectMatchesOracle(original, source, FromCounts(entries), 1000 + seed,
                        "seed " + std::to_string(seed));
  }
}

TEST(ShardedTransformTest, NoAdditions) {
  const Dataset original = MakeDataset(51, 40, kRows);
  const Histogram source = Histogram::FromDataset(original);
  Histogram target = source;
  ASSERT_TRUE(target.AddDelta(source.entry(0).token, -900).ok());
  ASSERT_TRUE(target.AddDelta(source.entry(7).token, -15).ok());
  ExpectMatchesOracle(original, source, target, 52, "no additions");
}

TEST(ShardedTransformTest, NoRemovals) {
  const Dataset original = MakeDataset(53, 40, kRows);
  const Histogram source = Histogram::FromDataset(original);
  Histogram target = source;
  ASSERT_TRUE(target.AddDelta(source.entry(2).token, 700).ok());
  ASSERT_TRUE(target.AddDelta(source.entry(30).token, 9).ok());
  ExpectMatchesOracle(original, source, target, 54, "no removals");
}

TEST(ShardedTransformTest, NoChangeAtAll) {
  const Dataset original = MakeDataset(55, 40, kRows);
  const Histogram source = Histogram::FromDataset(original);
  ExpectMatchesOracle(original, source, source, 56, "identity target");
}

TEST(ShardedTransformTest, TargetTokenAbsentFromSource) {
  const Dataset original = MakeDataset(57, 40, kRows);
  const Histogram source = Histogram::FromDataset(original);
  std::vector<HistogramEntry> entries = source.entries();
  entries[0].count -= 1000;
  entries.push_back(HistogramEntry{"never-seen", 2500});
  ExpectMatchesOracle(original, source, FromCounts(entries), 58,
                      "absent token");
}

TEST(ShardedTransformTest, DatasetBelowSerialThreshold) {
  const Dataset original = MakeDataset(59, 30, 5000);
  const Histogram source = Histogram::FromDataset(original);
  Histogram target = source;
  ASSERT_TRUE(target.AddDelta(source.entry(0).token, -40).ok());
  ASSERT_TRUE(target.AddDelta(source.entry(4).token, 25).ok());
  ExpectMatchesOracle(original, source, target, 60, "small dataset");
  ExpectMatchesOracle(Dataset(), Histogram(), Histogram(), 61, "empty");
}

TEST(ShardedTransformTest, SlotsAtFirstAndLastPosition) {
  // 40k kept rows of "k" and 200k additions of "n": a seed that puts an
  // addition at output position 0 and at final_size - 1 shows up as "n"
  // at both ends.
  const Dataset original(std::vector<Token>(40000, "k"));
  const Histogram source = Histogram::FromDataset(original);
  const Histogram target = FromCounts({{"k", 40000}, {"n", 200000}});
  bool found = false;
  for (uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    Rng probe(seed);
    const Dataset out = TransformDataset(original, target, probe);
    if (out.tokens().front() != "n" || out.tokens().back() != "n") continue;
    found = true;
    ExpectMatchesOracle(original, source, target, seed, "edge slots");
  }
  EXPECT_TRUE(found) << "no seed in 1..20 placed slots at both ends";
}

TEST(ShardedTransformTest, ChunkBoundaryInsideDroppedRun) {
  // "y" rows around one long run of "x" rows, of which the target keeps a
  // single one. The run straddles the scan's row-chunk boundaries, and
  // the prefix length puts the first output-range boundary exactly where
  // the run collapses, so the range start must skip the whole run.
  for (size_t workers : {1, 2, 7}) {
    const size_t chunks = workers + 1;
    const size_t final_size = 120000;
    const size_t prefix = final_size / chunks;
    const size_t run = 90000;
    const size_t suffix = final_size - 1 - prefix;
    std::vector<Token> tokens(prefix, "y");
    tokens.insert(tokens.end(), run, "x");
    tokens.insert(tokens.end(), suffix, "y");
    const Dataset original(std::move(tokens));
    const Histogram source = Histogram::FromDataset(original);
    const Histogram target =
        FromCounts({{"y", prefix + suffix}, {"x", 1}});
    ExpectMatchesOracle(original, source, target, 70 + workers,
                        "run, chunks=" + std::to_string(chunks));
  }
}

TEST(ShardedTransformTest, MismatchedSourceFallsBackToOracle) {
  const Dataset original = MakeDataset(81, 40, kRows);
  const Histogram truth = Histogram::FromDataset(original);
  Histogram target = truth;
  ASSERT_TRUE(target.AddDelta(truth.entry(0).token, -500).ok());
  ASSERT_TRUE(target.AddDelta(truth.entry(3).token, 200).ok());

  // Wrong total.
  Histogram short_total = truth;
  ASSERT_TRUE(short_total.AddDelta(truth.entry(1).token, -1).ok());
  ExpectMatchesOracle(original, short_total, target, 82, "wrong total");

  // Right total, two target tokens' counts traded.
  Histogram traded = truth;
  ASSERT_TRUE(traded.AddDelta(truth.entry(0).token, -3).ok());
  ASSERT_TRUE(traded.AddDelta(truth.entry(3).token, 3).ok());
  ExpectMatchesOracle(original, traded, target, 83, "traded counts");

  // The histogram of a different dataset of the same size.
  const Histogram other = Histogram::FromDataset(MakeDataset(84, 40, kRows));
  ExpectMatchesOracle(original, other, target, 85, "foreign source");
}

}  // namespace
}  // namespace freqywm
