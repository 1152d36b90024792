#ifndef FREQYWM_CORE_DETECT_H_
#define FREQYWM_CORE_DETECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/secrets.h"
#include "data/dataset.h"
#include "data/histogram.h"

namespace freqywm {

/// Outcome of `WmDetect` (Algorithm II).
struct DetectResult {
  /// True when at least `min_pairs` (k) stored pairs were verified.
  bool accepted = false;
  /// Pairs of Lwm whose both tokens were present in the suspect data.
  size_t pairs_found = 0;
  /// Pairs whose residue passed the threshold test.
  size_t pairs_verified = 0;
  /// pairs_verified / |Lwm| (0 when Lwm is empty); the "success rate"
  /// series plotted in Figs. 4 and 5.
  double verified_fraction = 0.0;

  /// Exact equality — the batch detection engine's determinism contract is
  /// element-wise identity with the serial path, fractions included.
  friend bool operator==(const DetectResult& a, const DetectResult& b) {
    return a.accepted == b.accepted && a.pairs_found == b.pairs_found &&
           a.pairs_verified == b.pairs_verified &&
           a.verified_fraction == b.verified_fraction;
  }
  friend bool operator!=(const DetectResult& a, const DetectResult& b) {
    return !(a == b);
  }
};

/// Key-side detection state derived once per key and reused across any
/// number of suspects (DESIGN.md §8): every stored pair's modulus
/// `s_ij = H(tk_i || H(R || tk_j)) mod z`, plus the key's distinct-token
/// list so detection gathers each token's suspect-side count exactly once
/// even when a token appears in many stored pairs.
///
/// The derivation hashes one inner digest per distinct `token_j` and one
/// outer hash per pair, so it costs no more than two hashes per pair. The
/// table depends only on the key (never on a suspect), is immutable after
/// `Build`, and is safe to share across threads — `BatchDetector` builds
/// one per key so the |suspects| × |keys| matrix derives each modulus
/// exactly once instead of once per cell.
class PairModulusTable {
 public:
  /// One stored pair: indices into `tokens()` plus the derived modulus.
  struct PairEntry {
    uint32_t token_i = 0;
    uint32_t token_j = 0;
    uint64_t s = 0;
  };

  /// Empty, invalid table (detection against it rejects, matching
  /// `DetectWatermark` on malformed secrets).
  PairModulusTable() = default;

  /// Derives the table from `secrets`. Invalid secrets (`z < 2` or no
  /// pairs) yield an invalid table.
  static PairModulusTable Build(const WatermarkSecrets& secrets);

  bool valid() const { return valid_; }
  /// |Lwm| — the denominator of `verified_fraction`.
  size_t num_pairs() const { return pairs_.size(); }
  /// Distinct tokens appearing in any stored pair, in first-seen order.
  const std::vector<Token>& tokens() const { return tokens_; }
  const std::vector<PairEntry>& pairs() const { return pairs_; }

 private:
  std::vector<Token> tokens_;
  std::vector<PairEntry> pairs_;
  bool valid_ = false;
};

/// Runs watermark detection on a suspect histogram.
///
/// For each stored pair present in the histogram it derives
/// `s_ij = H(tk_i || H(R || tk_j)) mod z` and accepts the pair when
/// `(f_i - f_j) mod s_ij <= t` (one-sided, as in the paper) or additionally
/// when the residue is within `t` of `s_ij` (symmetric option). The dataset
/// is declared watermarked when at least `k` pairs verify.
///
/// The suspect histogram does NOT need to be sorted — only counts are read.
/// Runs in O(|Lwm|) hash evaluations (linear, §I "verify very fast");
/// internally builds a `PairModulusTable`, so repeated tokens cost one
/// inner digest instead of one per stored pair.
DetectResult DetectWatermark(const Histogram& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options);

/// Table-backed detection. Byte-identical to
/// `DetectWatermark(suspect, secrets, options)` when `table` was built from
/// `secrets` (enforced per scheme by `tests/exec/prepared_detect_test.cc`):
/// it gathers each table token's suspect count into flat arrays once and
/// runs the pair loop below over them.
DetectResult DetectWatermark(const Histogram& suspect,
                             const PairModulusTable& table,
                             const DetectOptions& options);

/// The general pair loop of every table-backed detection path (DESIGN.md
/// §10): the token indices of `pairs[0, n)` index the caller's flat arrays
/// — `counts[t]` is the suspect count of token `t`, valid iff `present[t]`
/// is non-zero. The histogram overload above gathers into such arrays and
/// calls this. `n == 0` rejects, like an invalid table.
DetectResult DetectWatermark(const PairModulusTable::PairEntry* pairs,
                             size_t n, const uint64_t* counts,
                             const uint8_t* present,
                             const DetectOptions& options);

/// Marks an absent token in a narrow count row.
inline constexpr uint32_t kNarrowAbsent = 0xFFFFFFFFu;

/// The same general loop over a *narrow* count row: `counts[t]` is the
/// suspect count of token `t`, or `kNarrowAbsent` when the suspect lacks
/// it — so every count it can hold is below 2^32 - 1. The batch engine
/// binds each key's pairs to session-wide dense token ids once and
/// scatters each suspect once for all keys into such a row, so a matrix
/// cell costs zero hash probes. Any modulus and any options.
DetectResult DetectWatermark(const PairModulusTable::PairEntry* pairs,
                             size_t n, const uint32_t* counts,
                             const DetectOptions& options);

/// True when every modulus of `pairs[0, n)` lies in [2, 2^32): a column
/// the cell kernel below may evaluate.
bool NarrowPairs(const PairModulusTable::PairEntry* pairs, size_t n);

/// True when this CPU runs `DetectWatermarkCellKernel` (it reports
/// avx512f and avx512vl). Always false off x86-64.
bool CellKernelSupported();

/// The AVX-512 cell kernel (DESIGN.md §10): element-wise identical to the
/// narrow-row general loop above, eight pairs per step, without a
/// division. Preconditions: `CellKernelSupported()`, `NarrowPairs(pairs,
/// n)`, and `options.rescale_factor` is not `> 0`; callers dispatch
/// everything else to the general loop.
DetectResult DetectWatermarkCellKernel(const PairModulusTable::PairEntry* pairs,
                                       size_t n, const uint32_t* counts,
                                       const DetectOptions& options);

/// Convenience overload building the histogram from a raw dataset.
DetectResult DetectWatermark(const Dataset& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options);

/// The pre-table reference implementation (PR 2 state): one full
/// `PairModulus::Compute` — two hashes — per stored pair, no caching of
/// any kind. Kept as the identity oracle for the golden tests and as the
/// "before" side of the perf counters in the benches; output is
/// byte-identical to `DetectWatermark`.
DetectResult DetectWatermarkReference(const Histogram& suspect,
                                      const WatermarkSecrets& secrets,
                                      const DetectOptions& options);

}  // namespace freqywm

#endif  // FREQYWM_CORE_DETECT_H_
