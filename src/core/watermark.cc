#include "core/watermark.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "core/select.h"
#include "crypto/pair_modulus.h"
#include "exec/thread_pool.h"
#include "stats/similarity.h"

namespace freqywm {

WatermarkGenerator::WatermarkGenerator(GenerateOptions options)
    : options_(options) {}

Status WatermarkGenerator::ValidateOptions() const {
  if (options_.modulus_bound < 2) {
    return Status::InvalidArgument("modulus bound z must be >= 2");
  }
  if (options_.budget_percent < 0 || options_.budget_percent > 100) {
    return Status::InvalidArgument("budget must be in [0, 100] percent");
  }
  if (options_.lambda_bits < 8) {
    return Status::InvalidArgument("security parameter too small");
  }
  if (options_.min_modulus >= options_.modulus_bound) {
    return Status::InvalidArgument(
        "min_modulus must be below the modulus bound z");
  }
  return Status::OK();
}

Result<HistogramGenerateResult> WatermarkGenerator::GenerateFromHistogram(
    const Histogram& original) const {
  return GenerateFromHistogram(original, ExecContext{});
}

Result<HistogramGenerateResult> WatermarkGenerator::GenerateFromHistogram(
    const Histogram& original, const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(ValidateOptions());
  if (original.num_tokens() < 2) {
    return Status::InvalidArgument(
        "need at least two distinct tokens to watermark");
  }
  if (!original.IsSortedDescending()) {
    return Status::InvalidArgument("input histogram must be rank-sorted");
  }

  // Step 2 of Algorithm I: draw the high-entropy secret R.
  WatermarkSecret r =
      GenerateSecret(options_.lambda_bits, options_.seed);
  PairModulus modulus(r, options_.modulus_bound);

  // Steps 3-4: eligible pairs, then optimal/heuristic selection.
  std::vector<EligiblePair> eligible =
      BuildEligiblePairs(original, modulus, options_.eligibility,
                         options_.min_modulus, options_.min_pair_cost, exec);

  Rng rng(options_.seed == 0 ? DigestPrefixU64(Sha256::Hash(
                                   std::string(r.r.begin(), r.r.end())))
                             : options_.seed);
  SelectionResult selection = SelectPairs(original, eligible, options_, rng);
  if (selection.chosen.empty()) {
    return Status::ResourceExhausted(
        "no eligible pair fits the budget; dataset frequencies may be too "
        "uniform to watermark");
  }

  // Step 5: frequency modification (with ranking enforcement).
  std::vector<size_t> applied;
  Histogram watermarked =
      ApplyPairDeltas(original, eligible, selection.chosen, &applied);

  HistogramGenerateResult out{std::move(watermarked), GenerateReport{}};
  out.report.eligible_pairs = eligible.size();
  out.report.chosen_pairs = applied.size();
  out.report.similarity_percent =
      HistogramSimilarityPercent(original, out.watermarked, options_.metric);
  out.report.secrets.r = std::move(r);
  out.report.secrets.z = options_.modulus_bound;
  out.report.secrets.pairs.reserve(applied.size());
  for (size_t idx : applied) {
    const EligiblePair& p = eligible[idx];
    out.report.secrets.pairs.push_back(
        SecretPair{original.entry(p.rank_i).token,
                   original.entry(p.rank_j).token});
    out.report.total_churn += p.cost;
  }
  return out;
}

Result<DatasetGenerateResult> WatermarkGenerator::Generate(
    const Dataset& original) const {
  return Generate(original, ExecContext{});
}

Result<DatasetGenerateResult> WatermarkGenerator::Generate(
    const Dataset& original, const ExecContext& exec) const {
  FREQYWM_ASSIGN_OR_RETURN(Histogram hist,
                           exec.BuildHistogramChecked(original));
  return Generate(original, hist, exec);
}

Result<DatasetGenerateResult> WatermarkGenerator::Generate(
    const Dataset& original, const Histogram& hist) const {
  return Generate(original, hist, ExecContext{});
}

Result<DatasetGenerateResult> WatermarkGenerator::Generate(
    const Dataset& original, const Histogram& hist,
    const ExecContext& exec) const {
  FREQYWM_ASSIGN_OR_RETURN(HistogramGenerateResult hist_result,
                           GenerateFromHistogram(hist, exec));
  Rng rng(options_.seed == 0
              ? DigestPrefixU64(Sha256::Hash(
                    hist_result.report.secrets.r.ToHex()))
              : options_.seed + 0x517cc1b727220a95ULL);
  DatasetGenerateResult out{
      TransformDataset(original, hist, hist_result.watermarked, rng, exec),
      std::move(hist_result.report)};
  return out;
}

Histogram ApplyPairDeltas(const Histogram& hist,
                          const std::vector<EligiblePair>& eligible,
                          const std::vector<size_t>& chosen,
                          std::vector<size_t>* applied) {
  Histogram out = hist;
  if (applied) applied->clear();

  for (size_t idx : chosen) {
    const EligiblePair& p = eligible[idx];
    const Token& token_i = hist.entry(p.rank_i).token;
    const Token& token_j = hist.entry(p.rank_j).token;

    // Tentatively apply, then verify the local ordering did not break.
    Status si = out.AddDelta(token_i, p.delta_i);
    Status sj = out.AddDelta(token_j, p.delta_j);
    assert(si.ok() && sj.ok());
    (void)si;
    (void)sj;

    if (!out.IsSortedDescending()) {
      // Rare shared-gap collision under the paper's eligibility rule:
      // revert this pair to keep the Ranking Constraint hard.
      Status ri = out.AddDelta(token_i, -p.delta_i);
      Status rj = out.AddDelta(token_j, -p.delta_j);
      assert(ri.ok() && rj.ok());
      (void)ri;
      (void)rj;
      continue;
    }
    if (applied) applied->push_back(idx);
  }
  return out;
}

Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng) {
  // Per-token count differences between the original data and the target
  // histogram.
  Histogram current = Histogram::FromDataset(original);
  std::unordered_map<Token, int64_t> to_remove;  // positive = remove
  std::vector<Token> additions;
  for (const auto& e : target.entries()) {
    auto cur = current.CountOf(e.token);
    int64_t have = cur ? static_cast<int64_t>(*cur) : 0;
    int64_t want = static_cast<int64_t>(e.count);
    if (want < have) {
      to_remove[e.token] = have - want;
    } else {
      for (int64_t k = 0; k < want - have; ++k) additions.push_back(e.token);
    }
  }

  // Single pass: drop a uniformly random subset of each shrinking token's
  // occurrences. We pick which occurrences to drop via reservoir-free
  // counting: occurrence r of a token with `have` occurrences and `drop`
  // removals is dropped with probability drop/remaining.
  std::unordered_map<Token, std::pair<int64_t, int64_t>> removal_state;
  for (const auto& [token, drop] : to_remove) {
    auto cur = current.CountOf(token);
    removal_state[token] = {static_cast<int64_t>(*cur), drop};
  }

  std::vector<Token> kept;
  kept.reserve(original.size());
  for (const Token& t : original.tokens()) {
    auto it = removal_state.find(t);
    if (it == removal_state.end()) {
      kept.push_back(t);
      continue;
    }
    auto& [remaining, drop] = it->second;
    // Drop this occurrence with probability drop / remaining.
    bool dropped =
        drop > 0 && static_cast<int64_t>(rng.UniformU64(
                        static_cast<uint64_t>(remaining))) < drop;
    if (dropped) {
      --drop;
    } else {
      kept.push_back(t);
    }
    --remaining;
  }

  if (additions.empty()) return Dataset(std::move(kept));

  // Insert additions at uniformly random final positions: choose |adds|
  // distinct slots among the final length, fill them with a shuffled copy
  // of the additions, and stream the kept tokens into the other slots.
  rng.Shuffle(additions);
  const size_t final_size = kept.size() + additions.size();
  std::vector<size_t> slots =
      rng.SampleWithoutReplacement(final_size, additions.size());
  std::sort(slots.begin(), slots.end());

  std::vector<Token> out;
  out.reserve(final_size);
  size_t slot_idx = 0;
  size_t kept_idx = 0;
  for (size_t pos = 0; pos < final_size; ++pos) {
    if (slot_idx < slots.size() && slots[slot_idx] == pos) {
      out.push_back(std::move(additions[slot_idx]));
      ++slot_idx;
    } else {
      out.push_back(std::move(kept[kept_idx]));
      ++kept_idx;
    }
  }
  return Dataset(std::move(out));
}

namespace {

/// Below this many rows per chunk, dispatching to the pool costs more
/// than the scan it splits (the sharded histogram build's threshold).
constexpr size_t kMinRowsPerTransformChunk = 1 << 14;

/// A row holding a shrinking token: its position and the token's rank in
/// the target histogram.
struct ShrinkRow {
  size_t row;
  size_t rank;
};

/// Runs `body(c)` for every chunk `c` in `[0, chunks)`: on `exec`'s pool
/// when there is more than one chunk, inline otherwise.
void ForEachChunk(const ExecContext& exec, size_t chunks,
                  const std::function<void(size_t)>& body) {
  if (chunks > 1) {
    exec.pool->ParallelFor(chunks, body);
  } else {
    body(0);
  }
}

}  // namespace

Dataset TransformDataset(const Dataset& original, const Histogram& source,
                         const Histogram& target, Rng& rng,
                         const ExecContext& exec) {
  const size_t n = original.size();
  if (source.total_count() != n) {
    return TransformDataset(original, target, rng);
  }

  // Phase 1: per target rank, the source count and the surplus to drop;
  // the additions list in rank order, exactly as the oracle builds it.
  const std::vector<HistogramEntry>& wanted = target.entries();
  std::vector<uint64_t> have(wanted.size());
  std::vector<uint64_t> drop(wanted.size());
  std::vector<Token> additions;
  std::unordered_map<std::string_view, size_t> rank_of;
  rank_of.reserve(wanted.size());
  uint64_t shrinking_rows = 0;
  uint64_t total_drop = 0;
  for (size_t r = 0; r < wanted.size(); ++r) {
    const HistogramEntry& e = wanted[r];
    have[r] = source.CountOf(e.token).value_or(0);
    if (e.count < have[r]) {
      drop[r] = have[r] - e.count;
      shrinking_rows += have[r];
      total_drop += drop[r];
    } else {
      additions.insert(additions.end(), e.count - have[r], e.token);
    }
    rank_of.emplace(e.token, r);
  }

  // Phase 2: scan contiguous row chunks in parallel, counting every
  // target token and recording where the shrinking tokens sit.
  // Concatenating the chunks in order yields row order.
  const size_t chunks =
      exec.parallel()
          ? std::min(exec.pool->num_threads() + 1,
                     std::max<size_t>(1, n / kMinRowsPerTransformChunk))
          : 1;
  std::vector<std::vector<ShrinkRow>> shrink_rows(chunks);
  std::vector<std::vector<uint64_t>> seen(chunks);
  ForEachChunk(exec, chunks, [&](size_t c) {
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    std::vector<uint64_t>& counts = seen[c];
    counts.assign(wanted.size(), 0);
    std::vector<ShrinkRow>& rows = shrink_rows[c];
    rows.reserve(shrinking_rows / chunks);
    for (size_t i = begin; i < end; ++i) {
      auto it = rank_of.find(original[i]);
      if (it == rank_of.end()) continue;
      ++counts[it->second];
      if (drop[it->second] > 0) rows.push_back(ShrinkRow{i, it->second});
    }
  });

  // `source` must agree with the rows on every target token, or the
  // draws below would diverge from the oracle's; fall back to it
  // (`rng` is untouched so far).
  for (size_t r = 0; r < wanted.size(); ++r) {
    uint64_t total = 0;
    for (const std::vector<uint64_t>& counts : seen) total += counts[r];
    if (total != have[r]) return TransformDataset(original, target, rng);
  }

  // Phase 3: the oracle's draws, in row order: occurrence k of a token
  // with `remaining` unvisited occurrences is dropped with probability
  // drop / remaining.
  std::vector<uint64_t>& remaining = have;
  std::vector<size_t> dropped;
  dropped.reserve(total_drop);
  for (const std::vector<ShrinkRow>& rows : shrink_rows) {
    for (const ShrinkRow& s : rows) {
      uint64_t& left = drop[s.rank];
      if (left > 0 && rng.UniformU64(remaining[s.rank]) < left) {
        --left;
        dropped.push_back(s.row);
      }
      --remaining[s.rank];
    }
  }

  // Phase 4: the oracle's placement of the additions, unchanged.
  const size_t final_size = n - dropped.size() + additions.size();
  std::vector<size_t> slots;
  if (!additions.empty()) {
    rng.Shuffle(additions);
    slots = rng.SampleWithoutReplacement(final_size, additions.size());
    std::sort(slots.begin(), slots.end());
  }

  // Phase 5: fill output-position ranges in parallel. A range starting at
  // `begin` holds `begin - s` kept rows before it (s = slots below
  // `begin`); the dropped rows before the k-th kept row are those with
  // dropped[i] - i <= k, since dropped[i] - i counts the kept rows
  // preceding dropped[i].
  std::vector<Token> out(final_size);
  ForEachChunk(exec, chunks, [&](size_t c) {
    const size_t begin = final_size * c / chunks;
    const size_t end = final_size * (c + 1) / chunks;
    size_t s = static_cast<size_t>(
        std::lower_bound(slots.begin(), slots.end(), begin) - slots.begin());
    const size_t kept_before = begin - s;
    size_t d = 0;
    size_t hi = dropped.size();
    while (d < hi) {
      const size_t mid = d + (hi - d) / 2;
      if (dropped[mid] - mid <= kept_before) {
        d = mid + 1;
      } else {
        hi = mid;
      }
    }
    size_t row = kept_before + d;
    for (size_t pos = begin; pos < end; ++pos) {
      if (s < slots.size() && slots[s] == pos) {
        out[pos] = std::move(additions[s++]);
        continue;
      }
      while (d < dropped.size() && dropped[d] == row) {
        ++d;
        ++row;
      }
      out[pos] = original[row++];
    }
  });
  return Dataset(std::move(out));
}

}  // namespace freqywm
