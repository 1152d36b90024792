// BatchDetector::Session tile suite: the tiled drain over bound pair columns
// must equal the serial one-shot `Detect`, cell for cell, through
// `DrainChecked`, `DetectChecked` and `Run` at 1/2/4/8 threads. Key counts sit
// on and around the matrix tile (`kCellTile` = 256 cells), and every column
// kind shares a tile: FreqyWM (bound pairs), WM-OBT and WM-RVS (the scheme's
// histogram path), a malformed key, keys with repeated tokens, and three
// poisoned columns — an unregistered tag, a key whose `Prepare` fails and a
// quarantined key. Also: the scatter in both probe directions across several
// scatter tiles, an interrupted drain evaluates a prefix of tiles whose cells
// each equal the clean run, and a forged key with z = 2^64 - 1 (moduli at or
// above 2^63) gets the same verdict from the engine, the one-shot `Detect` and
// the reference.

#include "exec/batch_detector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/factory.h"
#include "api/freqywm_scheme.h"
#include "common/random.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "crypto/secret.h"
#include "datagen/power_law.h"
#include "exec/cancellation.h"
#include "exec/circuit_breaker.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {
namespace {

constexpr char kNullPrepareScheme[] = "tile-test-null-prepare";
constexpr char kCancelScheme[] = "tile-test-cancel";

/// When set, a `kCancelScheme` cell cancels it — an interruption raised
/// deterministically from inside a known tile.
std::atomic<CancellationSource*> g_cancel_on_detect{nullptr};

/// Out-of-tree test scheme: embeds as FreqyWM (so sweeps over
/// `RegisteredNames()` elsewhere in the binary stay consistent), detects
/// nothing, and optionally fails `Prepare` or cancels on `Detect`.
class TileTestScheme : public WatermarkScheme {
 public:
  explicit TileTestScheme(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Result<EmbedOutcome> Embed(const Histogram& original) const override {
    return FreqyWmScheme().Embed(original);
  }
  using WatermarkScheme::Detect;
  DetectResult Detect(const Histogram& /*suspect*/, const SchemeKey& /*key*/,
                      const DetectOptions& /*options*/) const override {
    if (name_ == kCancelScheme) {
      CancellationSource* source = g_cancel_on_detect.load();
      if (source != nullptr) source->Cancel();
    }
    return DetectResult{};
  }
  std::unique_ptr<PreparedKey> Prepare(const SchemeKey& key) const override {
    if (name_ == kNullPrepareScheme) return nullptr;
    return WatermarkScheme::Prepare(key);
  }

 private:
  std::string name_;
};

void RegisterTestSchemes() {
  static const bool registered = [] {
    for (const char* name : {kNullPrepareScheme, kCancelScheme}) {
      const std::string tag = name;
      Status s = SchemeFactory::Register(
          tag, [tag](const OptionBag&)
                   -> Result<std::unique_ptr<WatermarkScheme>> {
            return std::unique_ptr<WatermarkScheme>(
                std::make_unique<TileTestScheme>(tag));
          });
      EXPECT_TRUE(s.ok()) << s;
    }
    return true;
  }();
  (void)registered;
}

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 250;
  spec.sample_size = 150000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// A FreqyWM key without an embed: `num_pairs` random pairs over the
/// source's tokens under z 67. Token-disjoint like an honest key, or —
/// with `repeat_tokens` — drawn from a handful of tokens, so pairs share
/// tokens and repeat outright (forged/multi-watermark shape).
SchemeKey CheapFreqyKey(const Histogram& source, uint64_t seed,
                        size_t num_pairs, bool repeat_tokens) {
  Rng rng(seed);
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, seed | 1);
  secrets.z = 67;
  const size_t window = repeat_tokens ? 6 : source.num_tokens();
  std::vector<uint8_t> used(window, 0);
  while (secrets.pairs.size() < num_pairs) {
    const size_t i = rng.UniformU64(window);
    const size_t j = rng.UniformU64(window);
    if (i == j) continue;
    if (!repeat_tokens) {
      if (used[i] || used[j]) continue;
      used[i] = used[j] = 1;
    }
    secrets.pairs.push_back(
        SecretPair{source.entry(i).token, source.entry(j).token});
  }
  return SchemeKey{"freqywm", secrets.Serialize()};
}

SchemeKey EmbeddedKey(const std::string& scheme, const Histogram& original,
                      uint64_t seed, Histogram* watermarked) {
  OptionBag bag;
  bag.Set("seed", std::to_string(seed));
  auto created = SchemeFactory::Create(scheme, bag);
  EXPECT_TRUE(created.ok()) << created.status();
  auto outcome = created.value()->Embed(original);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  *watermarked = outcome.value().watermarked;
  return outcome.value().key;
}

/// Keys, suspects and the per-kind building blocks of a key column.
struct TileFixture {
  std::vector<Histogram> suspects;
  /// The mixed run of column kinds placed at both ends of every row.
  std::vector<SchemeKey> specials;
  /// Cheap FreqyWM keys cycled through the remaining columns.
  std::vector<SchemeKey> filler;
  SchemeKey quarantined;

  TileFixture() {
    RegisterTestSchemes();
    Histogram original = MakeHistogram(31);
    Histogram freqy_copy, obt_copy, rvs_copy;
    specials.push_back(EmbeddedKey("freqywm", original, 101, &freqy_copy));
    specials.push_back(EmbeddedKey("wm-obt", original, 102, &obt_copy));
    specials.push_back(EmbeddedKey("wm-rvs", original, 103, &rvs_copy));
    specials.push_back(SchemeKey{"no-such-scheme", "payload"});
    specials.push_back(SchemeKey{kNullPrepareScheme, "payload"});
    quarantined = CheapFreqyKey(original, 104, 30, false);
    specials.push_back(quarantined);
    specials.push_back(SchemeKey{"freqywm", "not a key payload"});
    specials.push_back(CheapFreqyKey(original, 105, 12, true));
    for (uint64_t k = 0; k < 64; ++k) {
      filler.push_back(CheapFreqyKey(original, 1000 + k, 30, k % 8 == 0));
    }
    suspects = {freqy_copy, obt_copy, rvs_copy, original, MakeHistogram(57)};
  }

  /// A column of `n` keys: the specials fill the first and the last
  /// columns of the row (a short row takes them in order), fillers the
  /// rest — so with 255..257 keys every tile mixes all column kinds.
  std::vector<SchemeKey> Column(size_t n) const {
    std::vector<SchemeKey> keys;
    for (size_t j = 0; j < n; ++j) {
      const size_t from_end = n - 1 - j;
      if (j < specials.size()) {
        keys.push_back(specials[j]);
      } else if (from_end < specials.size()) {
        keys.push_back(specials[specials.size() - 1 - from_end]);
      } else {
        keys.push_back(filler[j % filler.size()]);
      }
    }
    return keys;
  }
};

const TileFixture& Fixture() {
  static const TileFixture* fixture = new TileFixture();
  return *fixture;
}

/// A breaker whose circuit for `key` is open for the whole test.
std::shared_ptr<KeyCircuitBreaker> BreakerQuarantining(const SchemeKey& key) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = std::chrono::hours(1);
  options.clock_nanos = [] { return int64_t{0}; };
  auto breaker = std::make_shared<KeyCircuitBreaker>(std::move(options));
  breaker->RecordFailure(PreparedKeyCache::Fingerprint(key));
  return breaker;
}

/// What the session must report per column and cell: poisoned columns are
/// unevaluated default rejects, every other cell is the serial one-shot
/// `Detect(suspect, key, options)`.
struct Expected {
  std::vector<uint8_t> poisoned;
  std::vector<std::vector<DetectResult>> verdicts;
};

Expected SerialExpected(const std::vector<Histogram>& suspects,
                        const std::vector<SchemeKey>& keys,
                        const SchemeKey& quarantined,
                        const BatchDetectOptions& options) {
  Expected out;
  out.poisoned.assign(keys.size(), 0);
  out.verdicts.assign(suspects.size(), std::vector<DetectResult>(keys.size()));
  SchemeCache schemes;
  // Columns repeat the filler keys; compute each distinct key's column once.
  std::map<std::string, size_t> first_column;
  for (size_t j = 0; j < keys.size(); ++j) {
    auto [seen, inserted] = first_column.emplace(keys[j].Serialize(), j);
    if (!inserted) {
      out.poisoned[j] = out.poisoned[seen->second];
      for (auto& row : out.verdicts) row[j] = row[seen->second];
      continue;
    }
    const WatermarkScheme* scheme = schemes.Get(keys[j].scheme);
    if (scheme == nullptr || keys[j].scheme == kNullPrepareScheme ||
        keys[j] == quarantined) {
      out.poisoned[j] = 1;
      continue;
    }
    const DetectOptions cell_options =
        options.use_recommended_options
            ? scheme->RecommendedDetectOptions(keys[j])
            : options.detect_options;
    for (size_t i = 0; i < suspects.size(); ++i) {
      out.verdicts[i][j] = scheme->Detect(suspects[i], keys[j], cell_options);
    }
  }
  return out;
}

DetectOptions FixedOptions() {
  DetectOptions options;
  options.pair_threshold = 2;
  options.min_pairs = 3;
  options.symmetric_residue = true;
  options.rescale_factor = 1.7;
  return options;
}

class SessionTileTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SessionTileTest, DrainDetectAndRunEqualSerialOneShot) {
  const TileFixture& fx = Fixture();
  const std::vector<SchemeKey> keys = fx.Column(GetParam());
  auto cache = std::make_shared<PreparedKeyCache>(1024);
  for (bool recommended : {true, false}) {
    BatchDetectOptions base;
    base.use_recommended_options = recommended;
    base.detect_options = FixedOptions();
    const Expected expected =
        SerialExpected(fx.suspects, keys, fx.quarantined, base);
    for (size_t threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("keys " + std::to_string(keys.size()) + ", threads " +
                   std::to_string(threads) +
                   (recommended ? ", recommended" : ", fixed") + " options");
      BatchDetectOptions options = base;
      options.num_threads = threads;
      options.key_cache = cache;
      options.circuit_breaker = BreakerQuarantining(fx.quarantined);

      BatchDetector::Session session(options, keys);
      ASSERT_TRUE(session.Submit(fx.suspects, SubmitPolicy::kShed, {}).ok());
      SessionDrainResult drained = session.DrainChecked(InterruptContext{});
      ASSERT_TRUE(drained.status.ok()) << drained.status;
      EXPECT_TRUE(drained.cell_errors.empty());
      EXPECT_TRUE(drained.verdicts == expected.verdicts);
      for (size_t j = 0; j < keys.size(); ++j) {
        EXPECT_EQ(!session.key_statuses()[j].ok(), expected.poisoned[j] != 0)
            << "column " << j << ": " << session.key_statuses()[j];
        for (size_t i = 0; i < fx.suspects.size(); ++i) {
          EXPECT_EQ(drained.evaluated[i * keys.size() + j],
                    expected.poisoned[j] ? 0 : 1)
              << "cell (" << i << "," << j << ")";
        }
      }
      EXPECT_TRUE(session.DetectChecked(fx.suspects, {}).verdicts ==
                  expected.verdicts);

      options.circuit_breaker = BreakerQuarantining(fx.quarantined);
      EXPECT_TRUE(BatchDetector(options).Run(fx.suspects, keys) ==
                  expected.verdicts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileBoundaries, SessionTileTest,
                         ::testing::Values(size_t{0}, size_t{1}, size_t{255},
                                           size_t{256}, size_t{257},
                                           size_t{4097}));

TEST(SessionTileScatterTest, BothProbeDirectionsAcrossScatterTiles) {
  // A union vocabulary several scatter tiles wide, probed from the
  // vocabulary side for a suspect larger than it and from the suspect side
  // for smaller ones, each split across all the tiles.
  Rng rng(5);
  PowerLawSpec spec;
  spec.num_tokens = 3000;
  spec.sample_size = 600000;
  spec.alpha = 0.6;
  const Histogram source = GeneratePowerLawHistogram(spec, rng);
  std::vector<SchemeKey> keys;
  for (uint64_t k = 0; k < 40; ++k) {
    keys.push_back(CheapFreqyKey(source, 2000 + k, 30, false));
  }
  const std::vector<HistogramEntry>& entries = source.entries();
  auto head = Histogram::FromCounts(
      std::vector<HistogramEntry>(entries.begin(), entries.begin() + 900));
  auto tail = Histogram::FromCounts(
      std::vector<HistogramEntry>(entries.end() - 700, entries.end()));
  ASSERT_TRUE(head.ok() && tail.ok());
  const std::vector<Histogram> suspects{source, head.value(), tail.value(),
                                        MakeHistogram(3)};

  BatchDetectOptions options;
  options.use_recommended_options = false;
  options.detect_options = FixedOptions();
  const Expected expected =
      SerialExpected(suspects, keys, SchemeKey{}, options);
  for (size_t threads : {1, 4}) {
    options.num_threads = threads;
    BatchDetector::Session session(options, keys);
    ASSERT_GT(session.vocabulary_size(),
              2 * BatchDetector::Session::kScatterTile);
    ASSERT_LT(head.value().num_tokens(), session.vocabulary_size());
    ASSERT_GT(source.num_tokens(), session.vocabulary_size());
    ASSERT_TRUE(session.Submit(suspects, SubmitPolicy::kShed, {}).ok());
    SessionDrainResult drained = session.DrainChecked(InterruptContext{});
    ASSERT_TRUE(drained.status.ok()) << drained.status;
    EXPECT_TRUE(drained.verdicts == expected.verdicts) << threads;
  }
}

TEST(SessionTileInterruptTest, CancelledDrainEvaluatesATilePrefix) {
  // A cancel-on-detect column in row 0 raises the interruption from
  // inside the first tile: that tile finishes, later tiles are skipped
  // (serially: exactly those), and every evaluated cell equals the clean
  // run.
  const TileFixture& fx = Fixture();
  std::vector<SchemeKey> keys = fx.Column(1000);
  keys[3] = SchemeKey{kCancelScheme, "payload"};
  const size_t cells = fx.suspects.size() * keys.size();
  ASSERT_GT(cells, 4 * BatchDetector::Session::kCellTile);

  BatchDetectOptions clean_options;
  clean_options.circuit_breaker = BreakerQuarantining(fx.quarantined);
  const std::vector<std::vector<DetectResult>> clean =
      BatchDetector(clean_options).Run(fx.suspects, keys);

  auto cache = std::make_shared<PreparedKeyCache>(1024);
  for (size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CancellationSource source;
    BatchDetectOptions options;
    options.num_threads = threads;
    options.key_cache = cache;
    options.circuit_breaker = BreakerQuarantining(fx.quarantined);
    BatchDetector::Session session(options, keys);
    ASSERT_TRUE(session.Submit(fx.suspects, SubmitPolicy::kShed, {}).ok());
    g_cancel_on_detect.store(&source);
    SessionDrainResult drained =
        session.DrainChecked(InterruptContext{source.token(), Deadline()});
    g_cancel_on_detect.store(nullptr);

    EXPECT_EQ(drained.status.code(), StatusCode::kCancelled)
        << drained.status;
    size_t evaluated = 0;
    for (size_t c = 0; c < cells; ++c) {
      if (drained.evaluated[c] == 0) continue;
      ++evaluated;
      const size_t i = c / keys.size();
      const size_t j = c % keys.size();
      EXPECT_TRUE(drained.verdicts[i][j] == clean[i][j])
          << "cell (" << i << "," << j << ")";
    }
    // The cancelling tile always completes; serially the interruption is
    // noticed at the next tile, so nothing else runs. (In parallel, tiles
    // other threads claimed before the cancellation may finish too.)
    size_t first_tile = 0;
    for (size_t j = 0; j < BatchDetector::Session::kCellTile; ++j) {
      if (session.key_statuses()[j].ok()) {
        ++first_tile;
        EXPECT_EQ(drained.evaluated[j], 1) << "column " << j;
      }
    }
    EXPECT_GE(evaluated, first_tile);
    if (threads == 1) {
      EXPECT_EQ(evaluated, first_tile);
    }
  }
}

TEST(SessionTileForgedKeyTest, FullWidthModulusAgreesEverywhere) {
  // z = 2^64 - 1: Deserialize accepts any z >= 2, and about half of the
  // derived moduli land at or above 2^63, where a signed residue
  // overflows. Every modulus here far exceeds any count difference, so a
  // pair verifies iff 0 <= f_i - f_j <= t (|f_i - f_j| <= t with the
  // symmetric residue): an oracle independent of the residue code.
  const Histogram suspect = MakeHistogram(77);
  WatermarkSecrets secrets;
  secrets.r = GenerateSecret(256, 99);
  secrets.z = std::numeric_limits<uint64_t>::max();
  for (size_t p = 0; p + 1 < 80; p += 2) {
    // Alternate the order so about half the differences are negative.
    const Token& a = suspect.entry(p).token;
    const Token& b = suspect.entry(p + 1).token;
    secrets.pairs.push_back(p % 4 == 0 ? SecretPair{a, b} : SecretPair{b, a});
  }
  const PairModulusTable table = PairModulusTable::Build(secrets);
  size_t high_moduli = 0;
  for (const PairModulusTable::PairEntry& pair : table.pairs()) {
    ASSERT_GT(pair.s, uint64_t{1} << 32);
    if (pair.s >= (uint64_t{1} << 63)) ++high_moduli;
  }
  ASSERT_GT(high_moduli, 0u);
  const SchemeKey key{"freqywm", secrets.Serialize()};

  struct Case {
    bool symmetric;
    uint64_t threshold;
  };
  for (const Case& c : {Case{false, 0}, Case{false, 500},
                        Case{false, uint64_t{1} << 40}, Case{true, 0},
                        Case{true, 500}, Case{true, uint64_t{1} << 40}}) {
    SCOPED_TRACE("symmetric " + std::to_string(c.symmetric) + ", t " +
                 std::to_string(c.threshold));
    DetectOptions options;
    options.min_pairs = 1;
    options.symmetric_residue = c.symmetric;
    options.pair_threshold = c.threshold;
    size_t verified = 0;
    for (const SecretPair& pair : secrets.pairs) {
      const int64_t diff =
          static_cast<int64_t>(*suspect.CountOf(pair.token_i)) -
          static_cast<int64_t>(*suspect.CountOf(pair.token_j));
      const uint64_t magnitude = static_cast<uint64_t>(diff < 0 ? -diff : diff);
      if ((diff >= 0 || c.symmetric) && magnitude <= c.threshold) ++verified;
    }

    const DetectResult one_shot = FreqyWmScheme().Detect(suspect, key, options);
    EXPECT_EQ(one_shot.pairs_found, secrets.pairs.size());
    EXPECT_EQ(one_shot.pairs_verified, verified);
    EXPECT_TRUE(DetectWatermarkReference(suspect, secrets, options) ==
                one_shot);
    for (size_t threads : {1, 2}) {
      BatchDetectOptions batch;
      batch.num_threads = threads;
      batch.use_recommended_options = false;
      batch.detect_options = options;
      BatchDetector::Session session(batch, {key});
      ASSERT_TRUE(session.Submit({suspect}, SubmitPolicy::kShed, {}).ok());
      SessionDrainResult drained = session.DrainChecked(InterruptContext{});
      ASSERT_TRUE(drained.status.ok()) << drained.status;
      ASSERT_EQ(drained.evaluated[0], 1);
      EXPECT_TRUE(drained.verdicts[0][0] == one_shot) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace freqywm
