#include "data/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/real_world.h"

namespace freqywm {
namespace {

Histogram MakeUrlHistogram() {
  // The paper's running example (Fig. 1).
  auto h = Histogram::FromCounts({{"youtube", 1098},
                                  {"facebook", 980},
                                  {"google", 674},
                                  {"instagram", 537},
                                  {"bbc", 64},
                                  {"cnn", 53},
                                  {"elpais", 53}});
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(HistogramTest, FromDatasetCountsAndSorts) {
  Dataset d({"b", "a", "a", "c", "a", "b"});
  Histogram h = Histogram::FromDataset(d);
  EXPECT_EQ(h.num_tokens(), 3u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_EQ(h.entry(0).token, "a");
  EXPECT_EQ(h.entry(0).count, 3u);
  EXPECT_EQ(h.entry(1).token, "b");
  EXPECT_EQ(h.entry(2).token, "c");
  EXPECT_TRUE(h.IsSortedDescending());
}

TEST(HistogramTest, TieBreakIsDeterministicByToken) {
  Dataset d({"zz", "aa"});
  Histogram h = Histogram::FromDataset(d);
  EXPECT_EQ(h.entry(0).token, "aa");
  EXPECT_EQ(h.entry(1).token, "zz");
}

TEST(HistogramTest, FromCountsRejectsDuplicates) {
  auto h = Histogram::FromCounts({{"a", 1}, {"a", 2}});
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramTest, FromCountsRejectsZeroCounts) {
  EXPECT_FALSE(Histogram::FromCounts({{"a", 0}}).ok());
}

TEST(HistogramTest, CountOfAndRankOf) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.CountOf("youtube"), 1098u);
  EXPECT_EQ(h.RankOf("youtube"), 0u);
  EXPECT_EQ(h.RankOf("instagram"), 3u);
  EXPECT_FALSE(h.CountOf("myspace").has_value());
  EXPECT_FALSE(h.RankOf("myspace").has_value());
}

TEST(HistogramTest, SetCountUpdatesTotal) {
  Histogram h = MakeUrlHistogram();
  uint64_t before = h.total_count();
  ASSERT_TRUE(h.SetCount("cnn", 100).ok());
  EXPECT_EQ(h.CountOf("cnn"), 100u);
  EXPECT_EQ(h.total_count(), before - 53 + 100);
}

TEST(HistogramTest, SetCountUnknownTokenFails) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.SetCount("nope", 1).code(), StatusCode::kNotFound);
}

TEST(HistogramTest, AddDeltaPositiveAndNegative) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.AddDelta("youtube", -23).ok());
  ASSERT_TRUE(h.AddDelta("instagram", 22).ok());
  EXPECT_EQ(h.CountOf("youtube"), 1075u);
  EXPECT_EQ(h.CountOf("instagram"), 559u);
}

TEST(HistogramTest, AddDeltaUnderflowRejected) {
  Histogram h = MakeUrlHistogram();
  EXPECT_EQ(h.AddDelta("cnn", -54).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.CountOf("cnn"), 53u);  // unchanged
}

TEST(HistogramTest, MutationDoesNotResort) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.SetCount("elpais", 5000).ok());
  EXPECT_FALSE(h.IsSortedDescending());
  // Rank positions are frozen until Resorted().
  EXPECT_EQ(h.RankOf("elpais"), 6u);
}

TEST(HistogramTest, ResortedRestoresOrder) {
  Histogram h = MakeUrlHistogram();
  ASSERT_TRUE(h.SetCount("elpais", 5000).ok());
  Histogram r = h.Resorted();
  EXPECT_TRUE(r.IsSortedDescending());
  EXPECT_EQ(r.RankOf("elpais"), 0u);
  EXPECT_EQ(r.CountOf("elpais"), 5000u);
}

TEST(HistogramTest, ScaleCounts) {
  Histogram h = MakeUrlHistogram();
  h.ScaleCounts(2.0);
  EXPECT_EQ(h.CountOf("youtube"), 2196u);
  EXPECT_EQ(h.CountOf("cnn"), 106u);
}

TEST(HistogramTest, ScaleCountsRoundsToNearest) {
  auto h = Histogram::FromCounts({{"a", 3}});
  ASSERT_TRUE(h.ok());
  Histogram hist = std::move(h).value();
  hist.ScaleCounts(0.5);  // 1.5 -> 2 (round half away from zero)
  EXPECT_EQ(hist.CountOf("a"), 2u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.num_tokens(), 0u);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_TRUE(h.IsSortedDescending());
}

TEST(HistogramTest, TotalEqualsSumOfEntries) {
  Histogram h = MakeUrlHistogram();
  uint64_t sum = 0;
  for (const auto& e : h.entries()) sum += e.count;
  EXPECT_EQ(h.total_count(), sum);
}

// --------------------------------------------------- index vs std::map oracle

// Token `i` of a synthetic histogram. The mix stresses the index: the
// empty token, tokens sharing a long URL prefix, tokens with embedded
// '\0' bytes, 1 KB tokens that differ only past their first kilobyte,
// and short tokens. Counts repeat, so the tie-break decides many ranks.
Token SyntheticToken(size_t i) {
  const std::string n = std::to_string(i);
  if (i == 0) return "";
  switch (i % 4) {
    case 1:
      return "https://www.example.com/path/" + n;
    case 2:
      return std::string("nul\0", 4) + n + std::string(1, '\0');
    case 3:
      return std::string(1024, static_cast<char>('a' + i % 3)) + n;
    default:
      return n;
  }
}

std::vector<HistogramEntry> SyntheticEntries(size_t size) {
  std::vector<HistogramEntry> entries;
  for (size_t i = 0; i < size; ++i) {
    entries.push_back({SyntheticToken(i), 1 + (i * 7919) % 50});
  }
  return entries;
}

// The oracle: token -> count, plus the expected token at every rank.
struct Oracle {
  std::map<Token, uint64_t> counts;
  std::vector<Token> order;

  // Descending count, ascending token bytes: the documented construction
  // order, recomputed independently of the histogram.
  void Sort() {
    order.clear();
    for (const auto& [token, count] : counts) order.push_back(token);
    std::stable_sort(order.begin(), order.end(),
                     [&](const Token& a, const Token& b) {
                       return counts.at(a) > counts.at(b);
                     });
  }
};

Oracle MakeOracle(const std::vector<HistogramEntry>& entries) {
  Oracle oracle;
  for (const HistogramEntry& e : entries) oracle.counts[e.token] = e.count;
  oracle.Sort();
  return oracle;
}

// Tokens that must be absent: every token extended by a byte, every
// non-empty token cut by one byte, and a few fixed probes.
std::vector<Token> AbsentProbes(const Oracle& oracle) {
  std::vector<Token> probes = {"", std::string(1, '\0'), "x",
                               std::string(1024, 'a')};
  for (const auto& [token, count] : oracle.counts) {
    probes.push_back(token + "#");
    probes.push_back(token + std::string(1, '\0'));
    if (!token.empty()) probes.push_back(token.substr(0, token.size() - 1));
  }
  std::vector<Token> absent;
  for (Token& probe : probes) {
    if (oracle.counts.count(probe) == 0) absent.push_back(std::move(probe));
  }
  return absent;
}

void ExpectMatchesOracle(const Histogram& h, const Oracle& oracle,
                         const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(h.num_tokens(), oracle.counts.size());
  uint64_t total = 0;
  for (size_t rank = 0; rank < oracle.order.size(); ++rank) {
    const Token& token = oracle.order[rank];
    const uint64_t count = oracle.counts.at(token);
    total += count;
    ASSERT_EQ(h.entry(rank).token, token) << "rank " << rank;
    ASSERT_EQ(h.entry(rank).count, count) << "rank " << rank;
    ASSERT_EQ(h.RankOf(token), std::optional<size_t>(rank)) << "rank " << rank;
    ASSERT_EQ(h.CountOf(token), std::optional<uint64_t>(count))
        << "rank " << rank;
  }
  EXPECT_EQ(h.total_count(), total);
  for (const Token& token : AbsentProbes(oracle)) {
    ASSERT_FALSE(h.CountOf(token).has_value()) << "size " << token.size();
    ASSERT_FALSE(h.RankOf(token).has_value()) << "size " << token.size();
  }
}

// Applies the same SetCount/AddDelta edits to `h` and the oracle (ranks
// stay frozen), and checks both mutators reject absent tokens.
void MutateBoth(Histogram& h, Oracle& oracle, uint64_t salt) {
  const size_t n = oracle.order.size();
  for (size_t rank = 0; rank < n; rank += 1 + n / 16) {
    const Token& token = oracle.order[rank];
    ASSERT_TRUE(h.SetCount(token, 100 + salt + rank).ok());
    ASSERT_TRUE(h.AddDelta(token, -static_cast<int64_t>(salt)).ok());
    oracle.counts[token] = 100 + rank;
  }
  if (n > 0) {
    const Token& last = oracle.order[n - 1];
    ASSERT_TRUE(h.AddDelta(last, 7).ok());
    oracle.counts[last] += 7;
  }
  for (const Token& token : AbsentProbes(oracle)) {
    ASSERT_EQ(h.SetCount(token, 1).code(), StatusCode::kNotFound);
    ASSERT_EQ(h.AddDelta(token, 1).code(), StatusCode::kNotFound);
  }
}

// Construction, copy, copy-assignment, move, Resorted() and ScaleCounts(),
// each checked against the oracle and mutated further.
void RunDifferential(const std::vector<HistogramEntry>& entries) {
  Oracle oracle = MakeOracle(entries);
  auto built = Histogram::FromCounts(entries);
  ASSERT_TRUE(built.ok()) << built.status();
  const Histogram original = std::move(built).value();
  ExpectMatchesOracle(original, oracle, "FromCounts");

  Histogram copy = original;
  Oracle copy_oracle = oracle;
  MutateBoth(copy, copy_oracle, 3);
  ExpectMatchesOracle(copy, copy_oracle, "mutated copy");
  ExpectMatchesOracle(original, oracle, "original after copy mutation");

  Histogram assigned = MakeUrlHistogram();
  assigned = copy;
  ExpectMatchesOracle(assigned, copy_oracle, "copy-assigned");

  Histogram moved = std::move(copy);
  ExpectMatchesOracle(moved, copy_oracle, "moved");
  MutateBoth(moved, copy_oracle, 5);
  ExpectMatchesOracle(moved, copy_oracle, "mutated after move");

  Histogram resorted = moved.Resorted();
  copy_oracle.Sort();
  ExpectMatchesOracle(resorted, copy_oracle, "Resorted");
  MutateBoth(resorted, copy_oracle, 2);
  ExpectMatchesOracle(resorted, copy_oracle, "mutated after Resorted");

  resorted.ScaleCounts(2.5);
  for (auto& [token, count] : copy_oracle.counts) {
    count = static_cast<uint64_t>(std::llround(static_cast<double>(count) *
                                               2.5));
  }
  ExpectMatchesOracle(resorted, copy_oracle, "ScaleCounts");
  MutateBoth(resorted, copy_oracle, 1);
  ExpectMatchesOracle(resorted, copy_oracle, "mutated after ScaleCounts");
}

TEST(HistogramIndexTest, MatchesMapOracleAcrossSizes) {
  // Around the 8- and 4,096-entry points where the table doubles.
  for (size_t size : {0, 1, 7, 8, 9, 4095, 4096, 4097}) {
    SCOPED_TRACE("size " + std::to_string(size));
    RunDifferential(SyntheticEntries(size));
  }
}

TEST(HistogramIndexTest, MatchesMapOracleOnEyeWnderStandIn) {
  // The suspect shape of the marketplace trace: the first suspect of the
  // session-drain micro bench.
  Rng rng(22);
  const Histogram stand_in = MakeEyeWnderLikeHistogram(rng);
  ASSERT_EQ(stand_in.num_tokens(), 11476u);
  RunDifferential(stand_in.entries());
}

TEST(HistogramIndexTest, TagCollisionStillComparesTokens) {
  // Two tokens whose hashes agree in the tag (top 32 bits) and in the
  // low bit that picks the slot of a one-token histogram's two-slot
  // table, found by a birthday search. A lookup of one must meet the
  // other's slot, match its tag, and still tell them apart.
  if (sizeof(size_t) < 8) GTEST_SKIP() << "needs a 64-bit std::hash";
  constexpr uint64_t kSameBits = 0xFFFFFFFF00000001ull;
  std::vector<std::pair<uint64_t, uint32_t>> hashed;
  for (uint32_t i = 0; i < 300000; ++i) {
    const uint64_t h = std::hash<Token>{}("c" + std::to_string(i));
    hashed.emplace_back(h & kSameBits, i);
  }
  std::sort(hashed.begin(), hashed.end());
  Token a, b;
  for (size_t k = 1; k < hashed.size() && a.empty(); ++k) {
    if (hashed[k].first == hashed[k - 1].first) {
      a = "c" + std::to_string(hashed[k - 1].second);
      b = "c" + std::to_string(hashed[k].second);
    }
  }
  ASSERT_FALSE(a.empty()) << "no colliding pair among the candidates";

  auto one = Histogram::FromCounts({{a, 5}});
  ASSERT_TRUE(one.ok());
  Histogram h = std::move(one).value();
  EXPECT_EQ(h.RankOf(a), std::optional<size_t>(0));
  EXPECT_FALSE(h.CountOf(b).has_value());
  EXPECT_FALSE(h.RankOf(b).has_value());
  EXPECT_EQ(h.SetCount(b, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(h.AddDelta(b, 1).code(), StatusCode::kNotFound);

  auto both = Histogram::FromCounts({{a, 5}, {b, 3}});
  ASSERT_TRUE(both.ok()) << both.status();  // equal tags, distinct tokens
  EXPECT_EQ(both.value().RankOf(a), std::optional<size_t>(0));
  EXPECT_EQ(both.value().RankOf(b), std::optional<size_t>(1));
  EXPECT_EQ(both.value().CountOf(b), std::optional<uint64_t>(3));
}

TEST(HistogramIndexTest, FromDatasetMatchesFromCounts) {
  std::vector<Token> rows;
  const std::vector<HistogramEntry> entries = SyntheticEntries(9);
  for (const HistogramEntry& e : entries) {
    rows.insert(rows.end(), e.count, e.token);
  }
  std::reverse(rows.begin(), rows.end());
  const Histogram h = Histogram::FromDataset(Dataset(std::move(rows)));
  ExpectMatchesOracle(h, MakeOracle(entries), "FromDataset");
}

TEST(HistogramIndexTest, FromCountsStillRejectsDuplicatesAndZeros) {
  for (size_t size : {1, 9, 4097}) {
    for (size_t dup : {size_t{0}, size / 2, size - 1}) {
      std::vector<HistogramEntry> entries = SyntheticEntries(size);
      entries.push_back({entries[dup].token, 1 + entries[dup].count});
      auto h = Histogram::FromCounts(std::move(entries));
      EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument)
          << "size " << size << " duplicate of " << dup;
    }
    std::vector<HistogramEntry> entries = SyntheticEntries(size);
    entries[size / 2].count = 0;
    EXPECT_EQ(Histogram::FromCounts(std::move(entries)).status().code(),
              StatusCode::kInvalidArgument)
        << "size " << size;
  }
}

}  // namespace
}  // namespace freqywm
