#include "core/detect.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <utility>

#include "crypto/pair_modulus.h"

namespace freqywm {

PairModulusTable PairModulusTable::Build(const WatermarkSecrets& secrets) {
  PairModulusTable table;
  if (secrets.z < 2 || secrets.pairs.empty()) return table;

  PairModulus modulus(secrets.r, secrets.z);

  // Intern tokens so every distinct token derives its crypto state once:
  // an inner digest when it appears as token_j, an outer-hash midstate
  // when it appears as token_i. Honest pair lists are token-disjoint, but
  // forged/refreshed/multi-watermark keys repeat tokens freely.
  std::unordered_map<Token, uint32_t> index;
  auto intern = [&](const Token& token) -> uint32_t {
    auto [it, inserted] =
        index.emplace(token, static_cast<uint32_t>(table.tokens_.size()));
    if (inserted) table.tokens_.push_back(token);
    return it->second;
  };

  std::vector<std::optional<Sha256::Digest>> inner;
  std::vector<std::optional<PairModulus::OuterState>> outer;
  table.pairs_.reserve(secrets.pairs.size());
  for (const SecretPair& pair : secrets.pairs) {
    const uint32_t i = intern(pair.token_i);
    const uint32_t j = intern(pair.token_j);
    if (table.tokens_.size() > inner.size()) {
      inner.resize(table.tokens_.size());
      outer.resize(table.tokens_.size());
    }
    if (!outer[i]) outer[i] = modulus.OuterFor(table.tokens_[i]);
    if (!inner[j]) inner[j] = modulus.InnerDigest(table.tokens_[j]);
    table.pairs_.push_back(PairEntry{i, j, outer[i]->Reduce(*inner[j])});
  }
  table.valid_ = true;
  return table;
}

namespace {

/// `diff mod s` in `[0, s)`, in unsigned arithmetic so every modulus up to
/// 2^64 - 1 is exact: a forged key's `z` is unbounded above, and the
/// signed `((diff % s) + s) % s` overflows once `s` passes 2^62. Equal to
/// that expression wherever it does not overflow. The sign is a coin flip
/// per pair, so it selects through masks rather than a branch.
uint64_t Residue(int64_t diff, uint64_t s) {
  const uint64_t negative = uint64_t{0} - static_cast<uint64_t>(diff < 0);
  // |diff|, exact for INT64_MIN too (2^63 in unsigned).
  const uint64_t magnitude =
      (static_cast<uint64_t>(diff) ^ negative) - negative;
  const uint64_t r = magnitude % s;
  // A negative diff with r != 0 wraps to s - r, i.e. r + (s - 2r).
  const uint64_t wrap =
      negative & (uint64_t{0} - static_cast<uint64_t>(r != 0));
  return r + (wrap & (s - r - r));
}

}  // namespace

DetectResult DetectWatermark(const PairModulusTable::PairEntry* pairs,
                             size_t n, const uint64_t* counts,
                             const uint8_t* present,
                             const DetectOptions& options) {
  DetectResult out;
  if (n == 0) return out;

  // Local tallies: `out` may alias the arrays as far as the compiler
  // knows, so counting into it would store on every pair.
  size_t found = 0;
  size_t verified = 0;
  const double rescale = options.rescale_factor;
  const uint64_t threshold = options.pair_threshold;
  const bool symmetric = options.symmetric_residue;
  for (size_t p = 0; p < n; ++p) {
    const PairModulusTable::PairEntry& pair = pairs[p];
    if (!present[pair.token_i] || !present[pair.token_j]) continue;
    ++found;

    double fi = static_cast<double>(counts[pair.token_i]);
    double fj = static_cast<double>(counts[pair.token_j]);
    if (rescale > 0.0) {
      fi = std::llround(fi * rescale);
      fj = std::llround(fj * rescale);
    }

    const uint64_t s = pair.s;
    if (s < 2) continue;  // cannot happen for honestly generated pairs

    // The difference may be negative if an attack flipped the pair's
    // order; modular arithmetic on the absolute difference is equivalent
    // under the symmetric option and the honest convention otherwise.
    const int64_t diff = static_cast<int64_t>(fi) - static_cast<int64_t>(fj);
    const uint64_t residue = Residue(diff, s);

    bool pass = residue <= threshold;
    if (!pass && symmetric) pass = (s - residue) <= threshold;
    if (pass) ++verified;
  }

  out.pairs_found = found;
  out.pairs_verified = verified;
  out.verified_fraction =
      static_cast<double>(verified) / static_cast<double>(n);
  out.accepted = verified >= options.min_pairs;
  return out;
}

DetectResult DetectWatermark(const Histogram& suspect,
                             const PairModulusTable& table,
                             const DetectOptions& options) {
  if (!table.valid()) return DetectResult{};

  // Gather each distinct token's suspect-side count once per call; the
  // pair loop is then pure arithmetic over the flat arrays and the
  // table's precomputed moduli.
  const std::vector<Token>& tokens = table.tokens();
  std::vector<uint64_t> counts(tokens.size(), 0);
  std::vector<uint8_t> present(tokens.size(), 0);
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::optional<uint64_t> count = suspect.CountOf(tokens[t]);
    if (!count) continue;
    counts[t] = *count;
    present[t] = 1;
  }
  return DetectWatermark(table.pairs().data(), table.num_pairs(),
                         counts.data(), present.data(), options);
}

DetectResult DetectWatermark(const Histogram& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options) {
  return DetectWatermark(suspect, PairModulusTable::Build(secrets), options);
}

DetectResult DetectWatermark(const Dataset& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options) {
  return DetectWatermark(Histogram::FromDataset(suspect), secrets, options);
}

DetectResult DetectWatermarkReference(const Histogram& suspect,
                                      const WatermarkSecrets& secrets,
                                      const DetectOptions& options) {
  DetectResult out;
  if (secrets.z < 2 || secrets.pairs.empty()) return out;

  PairModulus modulus(secrets.r, secrets.z);

  for (const auto& pair : secrets.pairs) {
    auto ci = suspect.CountOf(pair.token_i);
    auto cj = suspect.CountOf(pair.token_j);
    if (!ci || !cj) continue;
    ++out.pairs_found;

    double fi = static_cast<double>(*ci);
    double fj = static_cast<double>(*cj);
    if (options.rescale_factor > 0.0) {
      fi = std::llround(fi * options.rescale_factor);
      fj = std::llround(fj * options.rescale_factor);
    }

    uint64_t s = modulus.Compute(pair.token_i, pair.token_j);
    if (s < 2) continue;  // cannot happen for honestly generated pairs

    // Unsigned residue, written out independently of the engine's
    // `Residue` helper: exact for every modulus a forged `z` can yield.
    const int64_t diff = static_cast<int64_t>(fi) - static_cast<int64_t>(fj);
    const uint64_t magnitude =
        diff >= 0 ? static_cast<uint64_t>(diff)
                  : uint64_t{0} - static_cast<uint64_t>(diff);
    uint64_t residue = magnitude % s;
    if (diff < 0 && residue != 0) residue = s - residue;

    bool pass = residue <= options.pair_threshold;
    if (!pass && options.symmetric_residue) {
      pass = (s - residue) <= options.pair_threshold;
    }
    if (pass) ++out.pairs_verified;
  }

  out.verified_fraction =
      static_cast<double>(out.pairs_verified) /
      static_cast<double>(secrets.pairs.size());
  out.accepted = out.pairs_verified >= options.min_pairs;
  return out;
}

}  // namespace freqywm
