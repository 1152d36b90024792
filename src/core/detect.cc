#include "core/detect.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "crypto/pair_modulus.h"

namespace freqywm {

PairModulusTable PairModulusTable::Build(const WatermarkSecrets& secrets) {
  PairModulusTable table;
  if (secrets.z < 2 || secrets.pairs.empty()) return table;

  PairModulus modulus(secrets.r, secrets.z);

  // Intern tokens in first-seen order so every distinct token_j derives
  // its inner digest once: honest pair lists are token-disjoint, but
  // forged/refreshed/multi-watermark keys repeat tokens freely. The
  // intern table is open addressing, at most half full, and its slots
  // hold indices into `tokens_`, so each token is copied once. The outer
  // hash needs no cache: a pair's outer hash is one compression whether
  // or not token_i repeats.
  const size_t max_tokens = 2 * secrets.pairs.size();
  size_t capacity = 16;
  while (capacity < 2 * max_tokens) capacity *= 2;
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slots(capacity, kEmpty);
  const std::hash<std::string_view> hasher;
  table.tokens_.reserve(max_tokens);
  auto intern = [&](const Token& token) -> uint32_t {
    size_t slot = hasher(token) & (capacity - 1);
    while (slots[slot] != kEmpty) {
      if (table.tokens_[slots[slot]] == token) return slots[slot];
      slot = (slot + 1) & (capacity - 1);
    }
    slots[slot] = static_cast<uint32_t>(table.tokens_.size());
    table.tokens_.push_back(token);
    return slots[slot];
  };

  std::vector<Sha256::Digest> inner(max_tokens);
  std::vector<uint8_t> has_inner(max_tokens, 0);
  table.pairs_.reserve(secrets.pairs.size());
  for (const SecretPair& pair : secrets.pairs) {
    const uint32_t i = intern(pair.token_i);
    const uint32_t j = intern(pair.token_j);
    if (!has_inner[j]) {
      inner[j] = modulus.InnerDigest(pair.token_j);
      has_inner[j] = 1;
    }
    table.pairs_.push_back(
        PairEntry{i, j, modulus.ComputeWithInner(pair.token_i, inner[j])});
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

/// A suspect count row as the general loop reads it: 64-bit counts with a
/// presence byte, as the histogram overload gathers them.
struct WideRow {
  const uint64_t* counts;
  const uint8_t* present;
  bool Has(uint32_t t) const { return present[t] != 0; }
  uint64_t Count(uint32_t t) const { return counts[t]; }
};

/// A narrow row: `kNarrowAbsent` marks absence, as the session scatters.
struct NarrowRow {
  const uint32_t* counts;
  bool Has(uint32_t t) const { return counts[t] != kNarrowAbsent; }
  uint64_t Count(uint32_t t) const { return counts[t]; }
};

DetectResult Tally(size_t found, size_t verified, size_t n,
                   const DetectOptions& options) {
  DetectResult out;
  out.pairs_found = found;
  out.pairs_verified = verified;
  out.verified_fraction =
      static_cast<double>(verified) / static_cast<double>(n);
  out.accepted = verified >= options.min_pairs;
  return out;
}

/// The general pair loop, over either row layout.
template <typename Row>
DetectResult PairLoop(const PairModulusTable::PairEntry* pairs, size_t n,
                      Row row, const DetectOptions& options) {
  if (n == 0) return DetectResult{};

  // Local tallies: a result struct may alias the arrays as far as the
  // compiler knows, so counting into it would store on every pair.
  size_t found = 0;
  size_t verified = 0;
  const double rescale = options.rescale_factor;
  const uint64_t threshold = options.pair_threshold;
  const bool symmetric = options.symmetric_residue;
  for (size_t p = 0; p < n; ++p) {
    const PairModulusTable::PairEntry& pair = pairs[p];
    if (!row.Has(pair.token_i) || !row.Has(pair.token_j)) continue;
    ++found;

    double fi = static_cast<double>(row.Count(pair.token_i));
    double fj = static_cast<double>(row.Count(pair.token_j));
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
  return Tally(found, verified, n, options);
}

}  // namespace

DetectResult DetectWatermark(const PairModulusTable::PairEntry* pairs,
                             size_t n, const uint64_t* counts,
                             const uint8_t* present,
                             const DetectOptions& options) {
  return PairLoop(pairs, n, WideRow{counts, present}, options);
}

DetectResult DetectWatermark(const PairModulusTable::PairEntry* pairs,
                             size_t n, const uint32_t* counts,
                             const DetectOptions& options) {
  return PairLoop(pairs, n, NarrowRow{counts}, options);
}

bool NarrowPairs(const PairModulusTable::PairEntry* pairs, size_t n) {
  for (size_t p = 0; p < n; ++p) {
    if (pairs[p].s < 2 || pairs[p].s > kNarrowAbsent) return false;
  }
  return true;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool CellKernelSupported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
}

// Eight pairs per step. A PairEntry is four 32-bit words (token_i,
// token_j, low and high half of s); two 64-byte loads hold eight entries,
// and two permutes split them into [token_i x8 | token_j x8] and the
// moduli. One 16-lane gather fetches both counts of every pair. In double
// precision, with every operand below 2^32 (DESIGN.md §10):
//   x ~ 1/s      rcp14 plus two Newton steps, relative error < 2^-50
//   q = trunc(|d| * x)       floor(|d| / s), or one less when s divides |d|
//   r = |d| - q * s          one FMA, exact: r is an integer in [0, s]
// then one correction maps r = s to 0. The sign wrap, threshold and
// symmetric rules are `Residue`'s and the general loop's.
// The intrinsics are the `maskz` forms: gcc 12's unmasked
// `_mm512_cvtepu32_pd`, `_mm512_roundscale_pd`, `_mm512_extracti64x4_epi64`
// and `_mm512_castsi512_si256` trip -Wmaybe-uninitialized inside its own
// headers.
__attribute__((target("avx512f,avx512vl"))) DetectResult
DetectWatermarkCellKernel(const PairModulusTable::PairEntry* pairs, size_t n,
                          const uint32_t* counts,
                          const DetectOptions& options) {
  static_assert(sizeof(PairModulusTable::PairEntry) == 16,
                "the kernel reads a PairEntry as four 32-bit words");
  if (n == 0) return DetectResult{};

  const __m512i split_ids = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1,
                                              5, 9, 13, 17, 21, 25, 29);
  const __m512i split_moduli = _mm512_setr_epi32(
      2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15, 19, 23, 27, 31);
  const __m512i absent = _mm512_set1_epi32(static_cast<int>(kNarrowAbsent));
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  // Every residue and every s - r is below 2^32, so a threshold at or
  // above 2^32 passes them all: clamp it to a double that is exact.
  const __m512d threshold = _mm512_set1_pd(static_cast<double>(
      std::min<uint64_t>(options.pair_threshold, uint64_t{1} << 32)));
  const bool symmetric = options.symmetric_residue;
  const auto* words = reinterpret_cast<const uint32_t*>(pairs);

  size_t found = 0;
  size_t verified = 0;
  for (size_t p = 0; p < n; p += 8) {
    const size_t lanes = std::min<size_t>(8, n - p);
    const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1);
    // Four words per live pair; dead lanes load as zero and never gather.
    const __mmask16 lo_words =
        static_cast<__mmask16>(lanes >= 4 ? 0xFFFF : (1u << (4 * lanes)) - 1);
    const __mmask16 hi_words = static_cast<__mmask16>(
        lanes <= 4 ? 0 : (1u << (4 * (lanes - 4))) - 1);
    const __m512i lo = _mm512_maskz_loadu_epi32(lo_words, words + 4 * p);
    const __m512i hi = _mm512_maskz_loadu_epi32(hi_words, words + 4 * p + 16);
    const __m512i ids = _mm512_permutex2var_epi32(lo, split_ids, hi);
    const __m256i s32 = _mm512_maskz_extracti64x4_epi64(
        0xF, _mm512_permutex2var_epi32(lo, split_moduli, hi), 0);

    // Dead lanes gather nothing and keep the absent marker.
    const __mmask16 gather = static_cast<__mmask16>(live | (live << 8));
    const __m512i both =
        _mm512_mask_i32gather_epi32(absent, gather, ids, counts, 4);
    const __mmask16 has = _mm512_cmpneq_epi32_mask(both, absent);
    const __mmask8 present = static_cast<__mmask8>(has & (has >> 8));

    const __m256i ci = _mm512_maskz_extracti64x4_epi64(0xF, both, 0);
    const __m256i cj = _mm512_maskz_extracti64x4_epi64(0xF, both, 1);
    const __mmask8 negative = _mm256_cmplt_epu32_mask(ci, cj);
    const __m256i magnitude = _mm256_sub_epi32(_mm256_max_epu32(ci, cj),
                                               _mm256_min_epu32(ci, cj));

    const __m512d d = _mm512_maskz_cvtepu32_pd(live, magnitude);
    const __m512d s = _mm512_maskz_cvtepu32_pd(live, s32);
    __m512d x = _mm512_maskz_rcp14_pd(live, s);
    x = _mm512_fmadd_pd(x, _mm512_fnmadd_pd(s, x, one), x);
    x = _mm512_fmadd_pd(x, _mm512_fnmadd_pd(s, x, one), x);
    const __m512d q = _mm512_maskz_roundscale_pd(
        live, _mm512_mul_pd(d, x), _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    __m512d r = _mm512_fnmadd_pd(q, s, d);
    r = _mm512_mask_sub_pd(r, _mm512_cmp_pd_mask(r, s, _CMP_GE_OQ), r, s);
    // A negative difference with r != 0 wraps to s - r.
    r = _mm512_mask_sub_pd(
        r, negative & _mm512_cmp_pd_mask(r, zero, _CMP_NEQ_OQ), s, r);

    __mmask8 pass = _mm512_cmp_pd_mask(r, threshold, _CMP_LE_OQ);
    if (symmetric) {
      pass |= _mm512_cmp_pd_mask(_mm512_sub_pd(s, r), threshold, _CMP_LE_OQ);
    }
    found += static_cast<size_t>(__builtin_popcount(present));
    verified += static_cast<size_t>(__builtin_popcount(pass & present));
  }
  return Tally(found, verified, n, options);
}

#else

bool CellKernelSupported() { return false; }

DetectResult DetectWatermarkCellKernel(const PairModulusTable::PairEntry* pairs,
                                       size_t n, const uint32_t* counts,
                                       const DetectOptions& options) {
  return DetectWatermark(pairs, n, counts, options);  // never dispatched
}

#endif

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
