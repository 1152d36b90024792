#include "data/histogram.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

namespace freqywm {
namespace {

// Width of a slot's rank field for `num_tokens` entries: 32 bits, or as
// many as `num_tokens` (the largest stored `rank + 1`) needs. The tag
// keeps the remaining high bits, so a histogram past 2^32 - 1 tokens
// trades tag bits for rank bits instead of truncating ranks.
constexpr int RankBits(uint64_t num_tokens) {
  int bits = 32;
  while (bits < 64 && (num_tokens >> bits) != 0) ++bits;
  return bits;
}
static_assert(RankBits(0) == 32, "empty histogram");
static_assert(RankBits(0xFFFFFFFFull) == 32, "largest 32-bit rank + 1");
static_assert(RankBits(0x100000000ull) == 33, "first token past 32 bits");
static_assert(RankBits(~0ull) == 64, "rank field never overflows");

uint64_t HashOf(const Token& token) {
  return static_cast<uint64_t>(std::hash<Token>{}(token));
}

void SortDescending(std::vector<HistogramEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const HistogramEntry& a, const HistogramEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.token < b.token;
            });
}

}  // namespace

Histogram Histogram::FromDataset(const Dataset& dataset) {
  std::unordered_map<Token, uint64_t> counts;
  counts.reserve(dataset.size());
  for (const Token& t : dataset.tokens()) ++counts[t];

  Histogram h;
  h.entries_.reserve(counts.size());
  for (auto& [token, count] : counts) {
    h.entries_.push_back(HistogramEntry{token, count});
  }
  SortDescending(h.entries_);
  h.total_ = dataset.size();
  h.RebuildIndex();
  return h;
}

Result<Histogram> Histogram::FromCounts(std::vector<HistogramEntry> entries) {
  Histogram h;
  h.entries_ = std::move(entries);
  SortDescending(h.entries_);
  uint64_t total = 0;
  for (const HistogramEntry& e : h.entries_) {
    if (e.count == 0) {
      return Status::InvalidArgument("histogram entry with zero count");
    }
    total += e.count;
  }
  // Equal tokens with different counts need not sort next to each other;
  // the index meets every repeat.
  const size_t repeat = h.RebuildIndex();
  if (repeat != kAbsent) {
    return Status::InvalidArgument("duplicate token in histogram: " +
                                   h.entries_[repeat].token);
  }
  h.total_ = total;
  return h;
}

size_t Histogram::RebuildIndex() {
  const size_t n = entries_.size();
  size_t repeat = kAbsent;
  slots_.clear();
  if (n == 0) return repeat;
  const int rank_bits = RankBits(n);
  tag_mask_ = rank_bits < 64 ? ~uint64_t{0} << rank_bits : 0;
  size_t size = 2;
  while (size < 2 * n) size *= 2;
  slots_.assign(size, 0);
  const size_t mask = size - 1;
  for (size_t rank = 0; rank < n; ++rank) {
    const uint64_t hash = HashOf(entries_[rank].token);
    const uint64_t slot = (hash & tag_mask_) | (rank + 1);
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint64_t held = slots_[s];
      if (held == 0) {
        slots_[s] = slot;
        break;
      }
      if (((held ^ hash) & tag_mask_) == 0 &&
          entries_[(held & ~tag_mask_) - 1].token == entries_[rank].token) {
        // A repeated token: the last index wins.
        if (repeat == kAbsent) repeat = rank;
        slots_[s] = slot;
        break;
      }
    }
  }
  return repeat;
}

size_t Histogram::Find(const Token& token) const {
  if (slots_.empty()) return kAbsent;
  const uint64_t hash = HashOf(token);
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint64_t held = slots_[s];
    if (held == 0) return kAbsent;
    if (((held ^ hash) & tag_mask_) == 0) {
      const size_t rank = static_cast<size_t>((held & ~tag_mask_) - 1);
      if (entries_[rank].token == token) return rank;
    }
  }
}

std::optional<uint64_t> Histogram::CountOf(const Token& token) const {
  const size_t rank = Find(token);
  if (rank == kAbsent) return std::nullopt;
  return entries_[rank].count;
}

std::optional<size_t> Histogram::RankOf(const Token& token) const {
  const size_t rank = Find(token);
  if (rank == kAbsent) return std::nullopt;
  return rank;
}

Status Histogram::SetCount(const Token& token, uint64_t count) {
  const size_t rank = Find(token);
  if (rank == kAbsent) {
    return Status::NotFound("token not in histogram: " + token);
  }
  total_ -= entries_[rank].count;
  entries_[rank].count = count;
  total_ += count;
  return Status::OK();
}

Status Histogram::AddDelta(const Token& token, int64_t delta) {
  const size_t rank = Find(token);
  if (rank == kAbsent) {
    return Status::NotFound("token not in histogram: " + token);
  }
  uint64_t& count = entries_[rank].count;
  if (delta < 0 && count < static_cast<uint64_t>(-delta)) {
    return Status::InvalidArgument("delta would make count negative");
  }
  total_ = total_ - count;
  count = static_cast<uint64_t>(static_cast<int64_t>(count) + delta);
  total_ += count;
  return Status::OK();
}

bool Histogram::IsSortedDescending() const {
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].count > entries_[i - 1].count) return false;
  }
  return true;
}

Histogram Histogram::Resorted() const {
  Histogram h = *this;
  SortDescending(h.entries_);
  h.RebuildIndex();
  return h;
}

void Histogram::ScaleCounts(double factor) {
  total_ = 0;
  for (auto& e : entries_) {
    e.count = static_cast<uint64_t>(std::llround(
        static_cast<double>(e.count) * factor));
    total_ += e.count;
  }
}

}  // namespace freqywm
