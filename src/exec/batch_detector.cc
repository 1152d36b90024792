#include "exec/batch_detector.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/mutex.h"
#include "exec/fault_injection.h"

namespace freqywm {

BatchDetector::BatchDetector(BatchDetectOptions options)
    : options_(std::move(options)) {}

// ---------------------------------------------------------------- Session

BatchDetector::Session::Session(BatchDetectOptions options,
                                std::vector<SchemeKey> keys)
    : options_(std::move(options)), keys_(std::move(keys)) {
  if (options_.num_threads > 1) {
    // num_threads is the *total* parallelism; the submitting thread helps
    // inside ParallelFor, so the pool needs one worker fewer.
    pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1);
  }
  PrepareKeys();
}

void BatchDetector::Session::PrepareKeys() {
  // One scheme per distinct tag (the same `SchemeCache` the serial
  // registry trace uses), populated on the constructing thread so a drain
  // only reads. Per-key detection settings, prepared state and bound pair
  // columns are likewise resolved here — once per session, not per chunk —
  // and stay deterministic regardless of scheduling. Prepared state goes
  // through the shared cache when one is configured, so keys already
  // prepared by an earlier session (or another tenant) cost a lookup.
  key_scheme_.assign(keys_.size(), nullptr);
  key_options_.assign(keys_.size(), DetectOptions{});
  prepared_.assign(keys_.size(), nullptr);
  key_status_.assign(keys_.size(), Status::OK());
  key_fingerprint_.assign(
      options_.circuit_breaker != nullptr ? keys_.size() : 0, std::string());
  pair_offsets_.assign(keys_.size() + 1, 0);
  kernel_column_.assign(keys_.size(), 0);
  const bool kernel = CellKernelSupported();  // one CPU check per session
  std::vector<uint32_t> dense_ids;  // table token index → dense id
  for (size_t j = 0; j < keys_.size(); ++j) {
    pair_offsets_[j] = bound_pairs_.size();
    const WatermarkScheme* scheme = schemes_.Get(keys_[j].scheme);
    key_scheme_[j] = scheme;
    if (scheme == nullptr) {
      // Unregistered tag → rejected cells, now with the reason recorded
      // per column instead of assumed.
      key_status_[j] = Status::NotFound("scheme '" + keys_[j].scheme +
                                        "' not registered");
      continue;
    }
    key_options_[j] = options_.use_recommended_options
                          ? scheme->RecommendedDetectOptions(keys_[j])
                          : options_.detect_options;
    // Quarantined key (DESIGN.md §14): an open circuit poisons the
    // column with the typed cooldown status before any preparation is
    // paid — the breaker's whole point is not re-paying for a key that
    // keeps failing.
    if (options_.circuit_breaker != nullptr) {
      key_fingerprint_[j] = PreparedKeyCache::Fingerprint(keys_[j]);
      Status allowed = options_.circuit_breaker->Allow(key_fingerprint_[j]);
      if (!allowed.ok()) {
        key_status_[j] = std::move(allowed);
        continue;
      }
    }
    // A preparation failure — injected here, or surfaced by the cache —
    // poisons only this column (DESIGN.md §13): prepared_[j] stays null,
    // the typed status is recorded, and every other key proceeds.
    Status prep = FREQYWM_FAULT_STATUS_KEYED("session/prepare",
                                             static_cast<uint64_t>(j));
    if (prep.ok() && options_.key_cache != nullptr) {
      Result<std::shared_ptr<const PreparedKey>> entry =
          options_.key_cache->GetOrPrepare(*scheme, keys_[j]);
      if (entry.ok()) {
        prepared_[j] = std::move(entry).value();
      } else {
        prep = entry.status();
      }
    } else if (prep.ok()) {
      prepared_[j] = scheme->Prepare(keys_[j]);
      if (prepared_[j] == nullptr) {
        prep = Status::Internal("scheme '" + keys_[j].scheme +
                                "' Prepare returned null");
      }
    }
    if (!prep.ok()) {
      if (options_.circuit_breaker != nullptr) {
        options_.circuit_breaker->RecordFailure(key_fingerprint_[j]);
      }
      key_status_[j] = std::move(prep);
      continue;
    }

    // Bind the key's pairs: intern its table's tokens into the session's
    // dense ids and append its pairs with indices remapped to them. Dense
    // ids are uint32_t; a union beyond 2^32 distinct tokens is far past
    // any realistic registry (it would not fit in memory), but degrade to
    // the histogram path rather than overflow if it ever happens.
    const PairModulusTable* table = prepared_[j]->PairTable();
    if (table == nullptr || table->num_pairs() == 0) continue;
    const std::vector<Token>& tokens = table->tokens();
    if (vocab_.size() + tokens.size() > std::numeric_limits<uint32_t>::max()) {
      continue;
    }
    dense_ids.clear();
    for (const Token& token : tokens) {
      auto [it, inserted] =
          vocab_index_.emplace(token, static_cast<uint32_t>(vocab_.size()));
      if (inserted) vocab_.push_back(token);
      dense_ids.push_back(it->second);
    }
    for (const PairModulusTable::PairEntry& pair : table->pairs()) {
      bound_pairs_.push_back(PairModulusTable::PairEntry{
          dense_ids[pair.token_i], dense_ids[pair.token_j], pair.s});
    }
    // The kernel's exactness needs every modulus below 2^32 and unscaled
    // counts (DESIGN.md §10); any other column keeps the general loop.
    kernel_column_[j] =
        kernel && !(key_options_[j].rescale_factor > 0.0) &&
        NarrowPairs(bound_pairs_.data() + pair_offsets_[j],
                    bound_pairs_.size() - pair_offsets_[j]);
  }
  pair_offsets_[keys_.size()] = bound_pairs_.size();
}

bool BatchDetector::Session::ScatterSuspect(const Histogram& suspect,
                                            size_t block, size_t blocks,
                                            uint32_t* counts) const {
  // Either direction fills the same row — the intersection of the
  // suspect's tokens with the union vocabulary — so the choice is purely
  // a cost call: one hash probe per token on the smaller side. Blocks of
  // distinct tokens write distinct ids, so tiles of one suspect never
  // overlap. A count the row cannot hold is truncated and reported.
  uint64_t widest = 0;
  if (suspect.num_tokens() < vocab_.size()) {
    // The suspect side is the smaller one: each of the `blocks` shares of
    // its entries is below `kScatterTile`.
    const std::vector<HistogramEntry>& entries = suspect.entries();
    const size_t end = entries.size() * (block + 1) / blocks;
    for (size_t e = entries.size() * block / blocks; e < end; ++e) {
      auto it = vocab_index_.find(entries[e].token);
      if (it == vocab_index_.end()) continue;
      counts[it->second] = static_cast<uint32_t>(entries[e].count);
      widest = std::max(widest, entries[e].count);
    }
  } else {
    const size_t end = std::min(vocab_.size(), (block + 1) * kScatterTile);
    for (size_t id = block * kScatterTile; id < end; ++id) {
      auto count = suspect.CountOf(vocab_[id]);
      if (!count) continue;
      counts[id] = static_cast<uint32_t>(*count);
      widest = std::max(widest, *count);
    }
  }
  return widest >= kNarrowAbsent;
}

Status BatchDetector::Session::Submit(std::vector<Histogram> suspects,
                                      SubmitPolicy policy,
                                      const InterruptContext& interrupt) {
  FREQYWM_FAULT_POINT("session/add_bounded");
  const size_t budget = options_.max_pending_suspects;
  if (budget > 0 && suspects.size() > budget) {
    // Can never fit; blocking would hang forever.
    return Status::ResourceExhausted(
        "shed: batch of " + std::to_string(suspects.size()) +
        " suspects exceeds the whole pending budget of " +
        std::to_string(budget));
  }
  constexpr std::chrono::milliseconds kWaitQuantum(10);
  MutexLock lock(pending_mutex_);
  while (budget > 0 && pending_.size() + suspects.size() > budget) {
    if (policy == SubmitPolicy::kShed) {
      return Status::ResourceExhausted(
          "shed: session queue full (" + std::to_string(pending_.size()) +
          " pending + " + std::to_string(suspects.size()) + " offered > " +
          std::to_string(budget) + " budget)");
    }
    FREQYWM_RETURN_NOT_OK(interrupt.Check());
    // Producer backpressure: drains notify pending_cv_ after claiming the
    // queue, so space-waiters wake; the bounded quantum caps how long an
    // interruption can go unnoticed if no drain ever runs.
    pending_cv_.WaitFor(pending_mutex_, kWaitQuantum);
  }
  for (Histogram& suspect : suspects) {
    pending_.push_back(std::move(suspect));
  }
  return Status::OK();
}

size_t BatchDetector::Session::pending_suspects() const {
  MutexLock lock(pending_mutex_);
  return pending_.size();
}

std::vector<Histogram> BatchDetector::Session::ClaimPending() {
  // Claim the queue atomically, then detect outside the lock: producers
  // that enqueue while the matrix evaluates land in the next drain instead
  // of blocking on it.
  std::vector<Histogram> batch;
  {
    MutexLock lock(pending_mutex_);
    batch.swap(pending_);
  }
  // The claim freed the whole pending budget: wake any producer blocked
  // in a kBlock Submit.
  pending_cv_.NotifyAll();
  return batch;
}

SessionDrainResult BatchDetector::Session::DrainChecked(
    const InterruptContext& interrupt) {
  return DetectChecked(ClaimPending(), interrupt);
}

SessionDrainResult BatchDetector::Session::DetectChecked(
    const std::vector<Histogram>& suspects,
    const InterruptContext& interrupt) const {
  SessionDrainResult out;
  out.status = EvaluateTiles(suspects, interrupt, out);

  // Deterministic error report order regardless of which thread recorded
  // which cell first.
  std::sort(out.cell_errors.begin(), out.cell_errors.end(),
            [](const SessionCellError& a, const SessionCellError& b) {
              return a.suspect != b.suspect ? a.suspect < b.suspect
                                            : a.key < b.key;
            });
  RecordColumnOutcomes(out);
  return out;
}

Status BatchDetector::Session::ForEachTile(
    size_t n, const InterruptContext& interrupt,
    const std::function<Status(size_t)>& body) const {
  if (pool_ != nullptr && pool_->num_threads() > 0) {
    return pool_->ParallelForChecked(n, interrupt, body);
  }
  for (size_t t = 0; t < n; ++t) {
    FREQYWM_RETURN_NOT_OK(interrupt.Check());
    FREQYWM_RETURN_NOT_OK(body(t));
  }
  return Status::OK();
}

Status BatchDetector::Session::EvaluateTiles(
    const std::vector<Histogram>& suspects, const InterruptContext& interrupt,
    SessionDrainResult& out) const {
  const size_t num_keys = keys_.size();
  const size_t cells = suspects.size() * num_keys;
  out.verdicts.resize(suspects.size());
  for (std::vector<DetectResult>& row : out.verdicts) row.resize(num_keys);
  out.evaluated.assign(cells, 0);
  if (cells == 0) return Status::OK();
  FREQYWM_RETURN_NOT_OK(interrupt.Check());

  // Phase 1 — scatter: each suspect's counts land in its narrow row of
  // one flat array, indexed by dense id and built once for *all* bound
  // columns. Tiles are (suspect × share of the smaller side), so even a
  // one-suspect drain spreads its probes over the pool; each tile reports
  // in its own byte whether it met a count of 2^32 - 1 or more. An
  // interruption here yields no evaluated cells: the rows are an
  // all-or-nothing precondition of the matrix phase.
  const size_t vocab = vocab_.size();
  std::vector<uint32_t> counts(suspects.size() * vocab, kNarrowAbsent);
  std::vector<uint8_t> wide(suspects.size(), 0);
  if (vocab > 0) {
    const size_t blocks = (vocab + kScatterTile - 1) / kScatterTile;
    std::vector<uint8_t> wide_tile(suspects.size() * blocks, 0);
    FREQYWM_RETURN_NOT_OK(ForEachTile(
        wide_tile.size(), interrupt, [&](size_t t) {
          const size_t i = t / blocks;
          wide_tile[t] = ScatterSuspect(suspects[i], t % blocks, blocks,
                                        counts.data() + i * vocab);
          return Status::OK();
        }));
    for (size_t t = 0; t < wide_tile.size(); ++t) {
      wide[t / blocks] |= wide_tile[t];
    }
  }

  // Phase 2 — the matrix, in tiles of `kCellTile` consecutive row-major
  // cells. A bound column is the AVX-512 cell kernel over the suspect's
  // narrow row where the column allows it, else the general pair loop
  // over the same row. A wide suspect, whose row cannot hold its counts,
  // and any unbound column keep the scheme's prepared histogram path.
  // Each cell depends only on (suspect, key, options), so any schedule
  // yields identical results. A failing cell records a typed error under
  // `errors_mutex` and the tile carries on (DESIGN.md §13):
  // one bad cell never aborts the drain, only a cancellation/deadline
  // stops it.
  Mutex errors_mutex;
  auto detect_tile = [&](size_t t) {
    const size_t begin = t * kCellTile;
    const size_t end = std::min(cells, begin + kCellTile);
    size_t i = begin / num_keys;
    size_t j = begin % num_keys;
    for (size_t c = begin; c < end; ++c) {
      if (key_status_[j].ok()) {  // else a poisoned column: no cell
        Status cell = FREQYWM_FAULT_STATUS_KEYED("session/detect_cell",
                                                 static_cast<uint64_t>(c));
        if (!cell.ok()) {
          MutexLock lock(errors_mutex);
          out.cell_errors.push_back(SessionCellError{i, j, std::move(cell)});
        } else {
          const PairModulusTable::PairEntry* pairs =
              bound_pairs_.data() + pair_offsets_[j];
          const size_t n = pair_offsets_[j + 1] - pair_offsets_[j];
          const uint32_t* row = counts.data() + i * vocab;
          if (n == 0 || wide[i]) {
            out.verdicts[i][j] = key_scheme_[j]->Detect(
                suspects[i], *prepared_[j], key_options_[j]);
          } else if (kernel_column_[j]) {
            out.verdicts[i][j] =
                DetectWatermarkCellKernel(pairs, n, row, key_options_[j]);
          } else {
            out.verdicts[i][j] =
                DetectWatermark(pairs, n, row, key_options_[j]);
          }
          out.evaluated[c] = 1;
        }
      }
      if (++j == num_keys) {
        j = 0;
        ++i;
      }
    }
    return Status::OK();
  };
  return ForEachTile((cells + kCellTile - 1) / kCellTile, interrupt,
                     detect_tile);
}

void BatchDetector::Session::RecordColumnOutcomes(
    const SessionDrainResult& result) const {
  if (options_.circuit_breaker == nullptr || keys_.empty()) return;
  // Without cell errors every outcome below is a success, and a success
  // on a key the breaker does not track changes nothing. A failure
  // another session records after this check orders after this drain.
  if (result.cell_errors.empty() &&
      !options_.circuit_breaker->TracksAnyKey()) {
    return;
  }
  // One pass over the drain: per column, whether any cell failed and
  // whether any evaluated. Then one breaker call for all columns.
  std::vector<uint8_t> column_failed(keys_.size(), 0);
  for (const SessionCellError& error : result.cell_errors) {
    if (error.key < keys_.size()) column_failed[error.key] = 1;
  }
  std::vector<uint8_t> column_evaluated(keys_.size(), 0);
  for (size_t row = 0; row < result.evaluated.size(); row += keys_.size()) {
    for (size_t j = 0; j < keys_.size(); ++j) {
      column_evaluated[j] |= result.evaluated[row + j];
    }
  }
  std::vector<KeyCircuitBreaker::Outcome> outcomes;
  for (size_t j = 0; j < keys_.size(); ++j) {
    if (!key_status_[j].ok()) continue;  // poisoned/quarantined column
    // A cleanly evaluated column is end-to-end evidence the key is
    // healthy; an interrupted drain that never reached the column is
    // evidence of nothing.
    if (column_failed[j] || column_evaluated[j]) {
      outcomes.push_back({key_fingerprint_[j], column_failed[j] != 0});
    }
  }
  options_.circuit_breaker->RecordOutcomes(outcomes);
}

// ------------------------------------------------------------------- Run

std::vector<std::vector<DetectResult>> BatchDetector::Run(
    const std::vector<Histogram>& suspects,
    std::vector<SchemeKey> keys) const {
  Session session(options_, std::move(keys));
  return session.DetectChecked(suspects, InterruptContext{}).verdicts;
}

}  // namespace freqywm
