// The AVX-512 cell kernel (`DetectWatermarkCellKernel`) against the general
// pair loop, over both row layouts, and against `DetectWatermarkReference`:
// every tail length from 1 to 33 pairs, moduli from 2 up to 2^32 - 1,
// counts from 0 up to the largest narrow count, negative differences,
// absent tokens on either side, thresholds around s and far above 2^32,
// both residue rules, and rescale factors the kernel accepts. The session
// cases check the dispatch: suspects whose counts do not fit a narrow row
// (2^32 - 1, 2^32, 2^53 + 1), a rescaling option and a column with one
// wide modulus all fall back to the general loop, and every cell of a
// drain mixing them equals the serial one-shot `Detect`. Direct kernel
// calls skip on CPUs without avx512f/avx512vl; the session cases run
// everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/freqywm_scheme.h"
#include "common/random.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "crypto/pair_modulus.h"
#include "crypto/secret.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"

namespace freqywm {
namespace {

using PairEntry = PairModulusTable::PairEntry;

constexpr uint64_t kTwo32 = uint64_t{1} << 32;
constexpr uint64_t kLargestNarrow = kTwo32 - 2;

/// A narrow row and the same counts as a wide row (counts + presence).
struct Rows {
  std::vector<uint32_t> narrow;
  std::vector<uint64_t> counts;
  std::vector<uint8_t> present;

  void Add(uint64_t count, bool is_present) {
    narrow.push_back(is_present ? static_cast<uint32_t>(count)
                                : kNarrowAbsent);
    counts.push_back(is_present ? count : 0);
    present.push_back(is_present ? 1 : 0);
  }
};

/// The residue rule written out over signed 64-bit integers, valid for
/// the narrow operands here (|diff| < 2^32, s < 2^32).
DetectResult ScalarOracle(const std::vector<PairEntry>& pairs,
                          const Rows& rows, const DetectOptions& options) {
  DetectResult out;
  for (const PairEntry& pair : pairs) {
    if (!rows.present[pair.token_i] || !rows.present[pair.token_j]) continue;
    ++out.pairs_found;
    const int64_t diff = static_cast<int64_t>(rows.counts[pair.token_i]) -
                         static_cast<int64_t>(rows.counts[pair.token_j]);
    int64_t r = diff % static_cast<int64_t>(pair.s);
    if (r < 0) r += static_cast<int64_t>(pair.s);
    const uint64_t residue = static_cast<uint64_t>(r);
    if (residue <= options.pair_threshold ||
        (options.symmetric_residue &&
         pair.s - residue <= options.pair_threshold)) {
      ++out.pairs_verified;
    }
  }
  out.verified_fraction = static_cast<double>(out.pairs_verified) /
                          static_cast<double>(pairs.size());
  out.accepted = out.pairs_verified >= options.min_pairs;
  return out;
}

/// 40 tokens: the edge counts first, then random narrow counts; tokens
/// 36..39 are absent. Equal counts appear on distinct tokens (0 and 1,
/// 5 and 6, 7 and 8).
Rows EdgeRows(Rng& rng) {
  Rows rows;
  for (uint64_t count : {uint64_t{0}, uint64_t{0}, uint64_t{1}, uint64_t{2},
                         uint64_t{3}, kLargestNarrow, kLargestNarrow,
                         uint64_t{1} << 31, uint64_t{1} << 31,
                         kLargestNarrow - 1, uint64_t{66}, uint64_t{67},
                         uint64_t{68}}) {
    rows.Add(count, true);
  }
  while (rows.narrow.size() < 36) {
    rows.Add(rng.UniformU64(kLargestNarrow + 1), true);
  }
  while (rows.narrow.size() < 40) rows.Add(0, false);
  return rows;
}

/// `n` pairs over the 40 tokens, each with a modulus from `moduli`. Some
/// pairs repeat a token on both sides; both orders occur, so differences
/// of both signs do.
std::vector<PairEntry> RandomPairs(Rng& rng, size_t n,
                                   const std::vector<uint64_t>& moduli) {
  std::vector<PairEntry> pairs;
  for (size_t p = 0; p < n; ++p) {
    const uint32_t i = static_cast<uint32_t>(rng.UniformU64(40));
    const uint32_t j =
        p % 7 == 3 ? i : static_cast<uint32_t>(rng.UniformU64(40));
    pairs.push_back(PairEntry{i, j, moduli[rng.UniformU64(moduli.size())]});
  }
  return pairs;
}

std::string Describe(const DetectOptions& options, size_t n) {
  return "n " + std::to_string(n) + ", t " +
         std::to_string(options.pair_threshold) + ", symmetric " +
         std::to_string(options.symmetric_residue) + ", rescale " +
         std::to_string(options.rescale_factor);
}

void ExpectAllAgree(const std::vector<PairEntry>& pairs, const Rows& rows,
                    const DetectOptions& options) {
  SCOPED_TRACE(Describe(options, pairs.size()));
  ASSERT_TRUE(NarrowPairs(pairs.data(), pairs.size()));
  const DetectResult kernel = DetectWatermarkCellKernel(
      pairs.data(), pairs.size(), rows.narrow.data(), options);
  const DetectResult narrow_loop =
      DetectWatermark(pairs.data(), pairs.size(), rows.narrow.data(), options);
  const DetectResult wide_loop =
      DetectWatermark(pairs.data(), pairs.size(), rows.counts.data(),
                      rows.present.data(), options);
  EXPECT_TRUE(kernel == narrow_loop);
  EXPECT_TRUE(kernel == wide_loop);
  const DetectResult oracle = ScalarOracle(pairs, rows, options);
  EXPECT_EQ(kernel.pairs_found, oracle.pairs_found);
  EXPECT_EQ(kernel.pairs_verified, oracle.pairs_verified);
  EXPECT_TRUE(kernel == oracle);
}

constexpr char kNoKernel[] = "CPU lacks avx512f/avx512vl: no cell kernel";

TEST(CellKernelTest, EveryTailAndMixedModuli) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  Rng rng(3);
  const Rows rows = EdgeRows(rng);
  const std::vector<uint64_t> moduli = {2, 3, 16, 67, uint64_t{1} << 31,
                                        kTwo32 - 1};
  for (size_t n = 1; n <= 33; ++n) {
    const std::vector<PairEntry> pairs = RandomPairs(rng, n, moduli);
    for (uint64_t t : {uint64_t{0}, uint64_t{1}, uint64_t{66},
                       uint64_t{1} << 33,
                       std::numeric_limits<uint64_t>::max()}) {
      for (bool symmetric : {false, true}) {
        DetectOptions options;
        options.pair_threshold = t;
        options.symmetric_residue = symmetric;
        options.min_pairs = n / 2;
        ExpectAllAgree(pairs, rows, options);
      }
    }
  }
}

TEST(CellKernelTest, ThresholdsAroundTheModulus) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  Rng rng(4);
  const Rows rows = EdgeRows(rng);
  for (uint64_t s : {uint64_t{2}, uint64_t{3}, uint64_t{16}, uint64_t{67},
                     uint64_t{1} << 31, kTwo32 - 1}) {
    for (size_t n : {size_t{1}, size_t{8}, size_t{17}, size_t{33}}) {
      const std::vector<PairEntry> pairs = RandomPairs(rng, n, {s});
      for (uint64_t t : {uint64_t{0}, uint64_t{1}, s - 1, s,
                         uint64_t{1} << 33,
                         std::numeric_limits<uint64_t>::max()}) {
        for (bool symmetric : {false, true}) {
          DetectOptions options;
          options.pair_threshold = t;
          options.symmetric_residue = symmetric;
          ExpectAllAgree(pairs, rows, options);
        }
      }
    }
  }
}

TEST(CellKernelTest, LargestNarrowDifferencesBothSigns) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  // |c_i - c_j| = 2^32 - 2, the widest narrow difference, in both
  // orders, against every modulus; plus zero and equal counts.
  Rows rows;
  rows.Add(0, true);
  rows.Add(kLargestNarrow, true);
  rows.Add(1, true);
  rows.Add(kLargestNarrow, true);
  rows.Add(0, false);
  std::vector<PairEntry> pairs;
  for (uint64_t s : {uint64_t{2}, uint64_t{3}, uint64_t{16}, uint64_t{67},
                     uint64_t{1} << 31, kTwo32 - 1, kTwo32 - 2, kTwo32 - 3}) {
    const std::vector<std::pair<uint32_t, uint32_t>> ids = {
        {0, 1}, {1, 0}, {2, 1}, {1, 2}, {1, 3}, {0, 0}, {4, 1}, {1, 4}};
    for (const auto& [i, j] : ids) pairs.push_back(PairEntry{i, j, s});
  }
  for (uint64_t t : {uint64_t{0}, uint64_t{1}, uint64_t{5}, kTwo32 - 3,
                     kTwo32 - 2, kTwo32 - 1}) {
    for (bool symmetric : {false, true}) {
      DetectOptions options;
      options.pair_threshold = t;
      options.symmetric_residue = symmetric;
      ExpectAllAgree(pairs, rows, options);
    }
  }
}

TEST(CellKernelTest, QuotientBoundaries) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  // Differences one below, at and one above multiples k * s, from k = 1
  // to the largest k a narrow difference allows: where an estimated
  // quotient one too high or too low shows, so both corrections must be
  // right. Moduli: every s up to 300, the largest rcp14 errors found
  // above it, powers of two and random ones up to 2^32 - 1.
  Rng rng(6);
  std::vector<uint64_t> moduli;
  for (uint64_t s = 2; s <= 300; ++s) moduli.push_back(s);
  for (uint64_t s : {uint64_t{127385}, uint64_t{1} << 20,
                     (uint64_t{1} << 31) - 1, uint64_t{1} << 31,
                     (uint64_t{1} << 31) + 1, kTwo32 - 3, kTwo32 - 1}) {
    moduli.push_back(s);
  }
  for (int r = 0; r < 200; ++r) {
    moduli.push_back(2 + rng.UniformU64(kTwo32 - 2));
  }

  Rows rows;
  rows.Add(0, true);  // token 0: count 0; every pair pits a count against it
  std::vector<PairEntry> pairs;
  for (uint64_t s : moduli) {
    const uint64_t top = kLargestNarrow / s;
    for (uint64_t k : {uint64_t{1}, uint64_t{2}, top / 2 + 1, top - 1, top}) {
      for (int delta : {-1, 0, 1}) {
        const uint64_t d = k * s + static_cast<uint64_t>(delta);
        if (k == 0 || d > kLargestNarrow) continue;
        const uint32_t id = static_cast<uint32_t>(rows.narrow.size());
        rows.Add(d, true);
        pairs.push_back(PairEntry{id, 0, s});  // d mod s
        pairs.push_back(PairEntry{0, id, s});  // -d mod s
      }
    }
  }
  for (size_t begin = 0; begin < pairs.size(); begin += 29) {
    const std::vector<PairEntry> column(
        pairs.begin() + static_cast<std::ptrdiff_t>(begin),
        pairs.begin() + static_cast<std::ptrdiff_t>(
                            std::min(pairs.size(), begin + 29)));
    for (uint64_t t : {uint64_t{0}, uint64_t{1}}) {
      for (bool symmetric : {false, true}) {
        DetectOptions options;
        options.pair_threshold = t;
        options.symmetric_residue = symmetric;
        ExpectAllAgree(column, rows, options);
      }
    }
  }
}

TEST(CellKernelTest, NonPositiveRescaleFactorsAreIgnored) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  Rng rng(5);
  const Rows rows = EdgeRows(rng);
  const std::vector<PairEntry> pairs = RandomPairs(rng, 29, {3, 16, 67});
  for (double rescale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    DetectOptions options;
    options.rescale_factor = rescale;
    options.pair_threshold = 1;
    ExpectAllAgree(pairs, rows, options);
  }
}

TEST(CellKernelTest, EveryPairAbsentAndEmptyColumn) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  Rows rows;
  rows.Add(0, false);
  rows.Add(5, true);
  const std::vector<PairEntry> pairs = {{0, 1, 3}, {1, 0, 3}, {0, 0, 3}};
  ExpectAllAgree(pairs, rows, DetectOptions{});
  EXPECT_TRUE(DetectWatermarkCellKernel(pairs.data(), 0, rows.narrow.data(),
                                        DetectOptions{}) == DetectResult{});
}

TEST(CellKernelTest, NarrowPairsBounds) {
  const std::vector<PairEntry> narrow = {{0, 0, 2}, {0, 0, kTwo32 - 1}};
  EXPECT_TRUE(NarrowPairs(narrow.data(), narrow.size()));
  for (uint64_t wide : {uint64_t{0}, uint64_t{1}, kTwo32,
                        std::numeric_limits<uint64_t>::max()}) {
    std::vector<PairEntry> pairs = narrow;
    pairs.insert(pairs.begin() + 1, PairEntry{0, 0, wide});
    EXPECT_FALSE(NarrowPairs(pairs.data(), pairs.size())) << wide;
  }
}

// ------------------------------------------------- real keys and suspects

/// Pairs over `tokens` under `z`, each kept only when its derived modulus
/// satisfies `keep`.
template <typename Keep>
WatermarkSecrets KeyWhere(const std::vector<Token>& tokens, uint64_t z,
                          uint64_t seed, size_t num_pairs, Keep keep) {
  Rng rng(seed);
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, seed | 1);
  secrets.z = z;
  PairModulus modulus(secrets.r, z);
  while (secrets.pairs.size() < num_pairs) {
    const Token& a = tokens[rng.UniformU64(tokens.size())];
    const Token& b = tokens[rng.UniformU64(tokens.size())];
    if (a == b || !keep(modulus.Compute(a, b))) continue;
    secrets.pairs.push_back(SecretPair{a, b});
  }
  return secrets;
}

bool IsNarrow(uint64_t s) { return s >= 2 && s < kTwo32; }

/// Tokens t0..t29 with edge counts (t29 is never in the suspect), and
/// `big` on t0 when non-zero. Counts of zero are set after construction.
Histogram Suspect(uint64_t seed, uint64_t big) {
  Rng rng(seed);
  std::vector<HistogramEntry> entries;
  for (size_t t = 0; t < 29; ++t) {
    uint64_t count = 1 + rng.UniformU64(5000);
    if (t == 1 || t == 2) count = kLargestNarrow;
    if (t == 3) count = 1;
    if (t == 4) count = 67 + (seed % 3);
    entries.push_back(HistogramEntry{"t" + std::to_string(t), count});
  }
  if (big != 0) entries[0].count = big;
  auto built = Histogram::FromCounts(std::move(entries));
  EXPECT_TRUE(built.ok()) << built.status();
  Histogram histogram = std::move(built).value();
  EXPECT_TRUE(histogram.SetCount("t5", 0).ok());
  return histogram;
}

std::vector<Token> SuspectTokens() {
  std::vector<Token> tokens;
  for (size_t t = 0; t < 30; ++t) tokens.push_back("t" + std::to_string(t));
  return tokens;
}

std::vector<DetectOptions> OptionMatrix() {
  std::vector<DetectOptions> all;
  for (double rescale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 1.7}) {
    for (uint64_t t : {uint64_t{0}, uint64_t{1}, uint64_t{66},
                       uint64_t{1} << 33,
                       std::numeric_limits<uint64_t>::max()}) {
      for (bool symmetric : {false, true}) {
        DetectOptions options;
        options.rescale_factor = rescale;
        options.pair_threshold = t;
        options.symmetric_residue = symmetric;
        options.min_pairs = 2;
        all.push_back(options);
      }
    }
  }
  return all;
}

TEST(CellKernelTest, MatchesReferenceOnDerivedModuli) {
  if (!CellKernelSupported()) GTEST_SKIP() << kNoKernel;
  const std::vector<Token> tokens = SuspectTokens();
  for (uint64_t z : {uint64_t{3}, uint64_t{17}, uint64_t{67},
                     (uint64_t{1} << 31) + 11, kTwo32}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{33}}) {
      const WatermarkSecrets secrets = KeyWhere(tokens, z, z + n, n, IsNarrow);
      const PairModulusTable table = PairModulusTable::Build(secrets);
      ASSERT_TRUE(NarrowPairs(table.pairs().data(), table.num_pairs()));
      const Histogram suspect = Suspect(z * 31 + n, 0);
      std::vector<uint32_t> row;
      for (const Token& token : table.tokens()) {
        const std::optional<uint64_t> count = suspect.CountOf(token);
        ASSERT_TRUE(!count || *count < kNarrowAbsent);
        row.push_back(count ? static_cast<uint32_t>(*count) : kNarrowAbsent);
      }
      for (const DetectOptions& options : OptionMatrix()) {
        if (options.rescale_factor > 0.0) continue;  // not the kernel's
        SCOPED_TRACE("z " + std::to_string(z) + ", " + Describe(options, n));
        const DetectResult kernel = DetectWatermarkCellKernel(
            table.pairs().data(), table.num_pairs(), row.data(), options);
        EXPECT_TRUE(kernel == DetectWatermarkReference(suspect, secrets,
                                                        options));
        EXPECT_TRUE(kernel == DetectWatermark(suspect, table, options));
      }
    }
  }
}

TEST(CellKernelSessionTest, NarrowAndWideSuspectsInOneDrain) {
  // Suspects: narrow ones, and ones whose t0 holds 2^32 - 2 (still
  // narrow), 2^32 - 1, 2^32 or 2^53 + 1 (each must fall back to the
  // general loop). Columns: narrow keys under several z, a column with
  // one wide modulus among narrow ones, and a forged z = 2^64 - 1 key.
  const std::vector<Token> tokens = SuspectTokens();
  std::vector<WatermarkSecrets> secrets;
  for (uint64_t z : {uint64_t{3}, uint64_t{67}, kTwo32}) {
    secrets.push_back(KeyWhere(tokens, z, z, 30, IsNarrow));
  }
  WatermarkSecrets one_wide =
      KeyWhere(tokens, uint64_t{1} << 33, 7, 20, IsNarrow);
  const WatermarkSecrets wide_pair = KeyWhere(
      tokens, uint64_t{1} << 33, 7, 1, [](uint64_t s) { return s >= kTwo32; });
  // Same seed, so the same R: the wide pair keeps its modulus.
  one_wide.pairs.insert(one_wide.pairs.begin() + 9, wide_pair.pairs[0]);
  secrets.push_back(one_wide);
  secrets.push_back(KeyWhere(tokens, std::numeric_limits<uint64_t>::max(), 8,
                             12, [](uint64_t) { return true; }));
  const PairModulusTable mixed = PairModulusTable::Build(secrets[3]);
  ASSERT_FALSE(NarrowPairs(mixed.pairs().data(), mixed.num_pairs()));

  std::vector<SchemeKey> keys;
  for (const WatermarkSecrets& s : secrets) {
    keys.push_back(SchemeKey{"freqywm", s.Serialize()});
  }
  std::vector<Histogram> suspects;
  uint64_t seed = 40;
  for (uint64_t big : {uint64_t{0}, kLargestNarrow, kTwo32 - 1, uint64_t{0},
                       kTwo32, (uint64_t{1} << 53) + 1, uint64_t{0}}) {
    suspects.push_back(Suspect(seed++, big));
  }

  for (const DetectOptions& options : OptionMatrix()) {
    SCOPED_TRACE(Describe(options, 0));
    for (size_t threads : {1, 2}) {
      BatchDetectOptions batch;
      batch.num_threads = threads;
      batch.use_recommended_options = false;
      batch.detect_options = options;
      BatchDetector::Session session(batch, keys);
      ASSERT_TRUE(session.Submit(suspects, SubmitPolicy::kShed, {}).ok());
      const SessionDrainResult drained =
          session.DrainChecked(InterruptContext{});
      ASSERT_TRUE(drained.status.ok()) << drained.status;
      for (size_t i = 0; i < suspects.size(); ++i) {
        for (size_t j = 0; j < keys.size(); ++j) {
          SCOPED_TRACE("suspect " + std::to_string(i) + ", key " +
                       std::to_string(j) + ", threads " +
                       std::to_string(threads));
          ASSERT_EQ(drained.evaluated[i * keys.size() + j], 1);
          const DetectResult one_shot =
              FreqyWmScheme().Detect(suspects[i], keys[j], options);
          EXPECT_TRUE(drained.verdicts[i][j] == one_shot);
          EXPECT_TRUE(DetectWatermarkReference(suspects[i], secrets[j],
                                               options) == one_shot);
        }
      }
    }
  }
}

}  // namespace
}  // namespace freqywm
