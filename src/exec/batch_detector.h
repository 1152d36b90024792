#ifndef FREQYWM_EXEC_BATCH_DETECTOR_H_
#define FREQYWM_EXEC_BATCH_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/detect.h"
#include "core/options.h"
#include "data/histogram.h"
#include "exec/cancellation.h"
#include "exec/circuit_breaker.h"
#include "exec/prepared_key_cache.h"
#include "exec/thread_pool.h"

namespace freqywm {

/// One failed matrix cell in a `SessionDrainResult`: detection of key
/// column `key` on suspect row `suspect` did not run to completion.
struct SessionCellError {
  size_t suspect = 0;
  size_t key = 0;
  Status status;
};

/// The result of a failure-aware session drain (DESIGN.md §13). The
/// verdict matrix always has full |suspects| × |keys| shape; the
/// companion fields say which cells actually hold a detection:
///
///   - the session's `key_statuses()[j]` is non-OK when column `j` is
///     poisoned — its key failed `Prepare` (or its scheme tag is
///     unregistered) — and every cell in that column is unevaluated,
///     default-rejected (fixed when the session opens, so a drain does
///     not copy it);
///   - `cell_errors` lists individually failed cells (sorted by
///     (suspect, key)), each with its typed status — one bad cell never
///     contaminates its row, column, or the drain;
///   - `evaluated[i * keys + j]` is 1 iff `verdicts[i][j]` is a real
///     detection result;
///   - `status` is the drain-level outcome: OK for a completed drain
///     (even one with poisoned columns or failed cells), or
///     `kCancelled`/`kDeadlineExceeded` when the drain was interrupted —
///     then the evaluated mask marks the partial prefix that finished
///     before the interruption.
struct SessionDrainResult {
  std::vector<std::vector<DetectResult>> verdicts;
  std::vector<SessionCellError> cell_errors;
  std::vector<uint8_t> evaluated;
  Status status;
};

/// What `BatchDetector::Session::Submit` does with a batch that does not
/// fit in the `max_pending_suspects` budget (DESIGN.md §14).
enum class SubmitPolicy {
  /// Shed all-or-nothing with typed `kResourceExhausted`; never blocks.
  kShed,
  /// Backpressure: wait until drains free enough space, the interrupt's
  /// token is cancelled or its deadline expires.
  kBlock,
};

/// Configuration of a `BatchDetector` run.
struct BatchDetectOptions {
  /// Total parallelism (worker threads; the submitting thread helps).
  /// 1 → the serial reference path, bit-identical to a hand-written
  /// nested `Detect` loop.
  size_t num_threads = 1;

  /// When true (default), each key is detected under its scheme's
  /// `RecommendedDetectOptions(key)`; when false, `detect_options` applies
  /// to every cell.
  bool use_recommended_options = true;

  /// Fixed per-cell settings, used when `use_recommended_options` is false.
  DetectOptions detect_options;

  /// Optional shared `PreparedKey` cache (DESIGN.md §10). When set, runs
  /// and sessions resolve their keys through it, so preparation is paid
  /// once per key *lifetime* — across batches, sessions and tenants — not
  /// once per `Run`. When null, keys are prepared privately. Cache state
  /// (cold, warm, evicted) never changes detection output.
  std::shared_ptr<PreparedKeyCache> key_cache;

  /// Bounded pending-work budget for the session queue (DESIGN.md §14):
  /// the maximum suspects `Session::Submit` allows to accumulate between
  /// drains. 0 (default) = unbounded: `Submit` then never sheds or
  /// blocks under either policy.
  size_t max_pending_suspects = 0;

  /// Optional cooldown circuit breaker over key identities (DESIGN.md
  /// §14). When set, a key whose circuit is open is skipped at
  /// `PrepareKeys` — its column poisoned with the typed quarantine
  /// status — and drain outcomes feed back per column: a prepare
  /// failure or a drained column with cell errors records a failure, a
  /// cleanly evaluated column records a success. Shareable across
  /// sessions (that is the point: repeated failures accumulate).
  std::shared_ptr<KeyCircuitBreaker> circuit_breaker;
};

/// The batch detection engine (DESIGN.md §7, §10): evaluates the full
/// |suspects| × |keys| matrix of `WatermarkScheme::Detect` calls — the
/// marketplace workload where one owner traces many suspect copies against
/// many escrowed keys.
///
/// Scheme instances are created once per distinct key tag and shared
/// across threads (`Detect` is const and stateless for every in-tree
/// scheme; out-of-tree schemes joining the factory must keep it so). Each
/// key is `Prepare`d once up front — through the shared `key_cache` when
/// one is configured — and the stored pairs of keys exposing a
/// `PairTable` are bound to session-wide dense token ids: the union of
/// their tokens is interned once, each suspect histogram is scattered into
/// a flat count vector once, and every such matrix cell is the pair loop
/// over the bound column — zero hash probes, no virtual call (DESIGN.md
/// §10). The matrix runs in tiles of cells, one work claim and one
/// interruption poll per tile. Keys whose scheme tag is not registered
/// yield a default (rejected) `DetectResult`, matching the serial
/// `FingerprintRegistry::Trace` convention of skipping them.
///
/// Determinism contract: `result[i][j]` depends only on
/// `(suspects[i], keys[j], options)` — never on thread count, schedule,
/// chunking or cache state — so every configuration is element-wise
/// identical to the serial path (enforced for every registered scheme by
/// `tests/exec/batch_detector_test.cc` and
/// `tests/exec/batch_session_test.cc`).
class BatchDetector {
 public:
  explicit BatchDetector(BatchDetectOptions options = {});

  /// A streaming detection session: the key column is fixed once, and
  /// suspect chunks arrive incrementally — the shape of the ROADMAP's
  /// batch-detection service, where escrowed buyer keys are long-lived and
  /// surfaced suspect copies trickle in. The session holds the expensive
  /// state across chunks: the thread pool, the prepared keys (resolved
  /// through the shared `PreparedKeyCache` when configured, so a later
  /// session over the same keys starts warm), the dense-id interner and
  /// the bound pair columns.
  ///
  /// `DrainChecked` output is element-wise identical to a one-shot `Run`
  /// over the concatenated chunks, for any chunking, thread count and
  /// cache state.
  ///
  /// Concurrency: `Submit` is thread-safe — many producer threads may
  /// enqueue (the shape of the ROADMAP's detection service, where request
  /// handlers enqueue while a drainer detects); the pending queue is
  /// guarded by `pending_mutex_` (machine-checked by the CI thread-safety
  /// job). Arrival order under concurrent producers is whatever order the
  /// enqueues serialize in — per-producer order is preserved.
  /// `DrainChecked`/`DetectChecked` remain single-caller: one drainer at a
  /// time (the parallelism lives inside the drain). Prepared keys resolved
  /// at construction are pinned for the session's lifetime — cache
  /// evictions never invalidate them.
  class Session {
   public:
    /// Creates a session over `keys`, owning a thread pool when
    /// `options.num_threads > 1` (the pool persists across chunks).
    Session(BatchDetectOptions options, std::vector<SchemeKey> keys);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Enqueues `suspects` for the next drain, preserving arrival order.
    /// With no budget configured every batch is admitted. Otherwise a
    /// batch larger than the whole budget can never fit and is shed at
    /// once with `kResourceExhausted`; a batch that does not fit now is
    /// shed (`kShed`) or waits in bounded ~10 ms quanta, polling
    /// `interrupt` (`kBlock`, which returns the interruption status).
    /// All-or-nothing: on any non-OK return NOTHING was enqueued. An
    /// admitted batch drains exactly as any other — the policy changes
    /// only whether and when suspects enter the queue, never what their
    /// drain computes. Thread-safe; suspects enqueued while a drain runs
    /// land in the next drain.
    [[nodiscard]] Status Submit(std::vector<Histogram> suspects,
                                SubmitPolicy policy,
                                const InterruptContext& interrupt);

    /// Suspects enqueued since the last drain. Thread-safe.
    size_t pending_suspects() const;

    /// The failure-aware drain (DESIGN.md §13): claims the whole pending
    /// queue (row order equals arrival order) and detects it like
    /// `DetectChecked`. Claimed suspects are consumed even when the drain
    /// is interrupted — the caller inspects `evaluated` to see which
    /// cells completed.
    SessionDrainResult DrainChecked(const InterruptContext& interrupt);

    /// One-shot detection of `suspects` against the key column, without
    /// touching the pending queue. Honors `interrupt` at every tile
    /// boundary — an interruption is noticed within one tile (`kCellTile`
    /// cells, or one scatter tile), not one cell — and isolates per-key /
    /// per-cell failures instead of assuming them away. For a clean,
    /// uninterrupted run over all-OK keys, `verdicts[i][j]` is
    /// element-wise identical to the scheme's one-shot `Detect`.
    SessionDrainResult DetectChecked(const std::vector<Histogram>& suspects,
                                     const InterruptContext& interrupt) const;

    /// Per-key preparation outcome, fixed at construction: `[j]` is OK
    /// when column `j` is usable, `kNotFound` for an unregistered scheme
    /// tag, or the typed `Prepare` failure that poisoned the column.
    /// Unregistered tags were always skipped silently (`Run`'s
    /// default-rejected convention); this is where that fact became
    /// observable.
    const std::vector<Status>& key_statuses() const { return key_status_; }

    const std::vector<SchemeKey>& keys() const { return keys_; }

    /// Size of the interned union vocabulary (0 when no key exposes a
    /// `PairTable`).
    size_t vocabulary_size() const { return vocab_.size(); }

    /// Work quanta of the drain (fixed, not options): a scatter tile is
    /// one suspect × `kScatterTile` probes, a matrix tile `kCellTile`
    /// consecutive cells of the row-major cell index.
    static constexpr size_t kScatterTile = 512;
    static constexpr size_t kCellTile = 256;

   private:
    void PrepareKeys();
    /// Takes the whole pending queue and wakes blocked producers.
    std::vector<Histogram> ClaimPending();
    /// The tile routine behind `DetectChecked`: shapes
    /// `out.verdicts`/`out.evaluated`, scatters `suspects`, then
    /// evaluates the matrix into `out`, polling `interrupt` per tile and
    /// running the `session/detect_cell` fault site per cell. Returns the
    /// drain-level status.
    Status EvaluateTiles(const std::vector<Histogram>& suspects,
                         const InterruptContext& interrupt,
                         SessionDrainResult& out) const;
    /// Runs `body(t)` for every tile `t < n`, over the pool when there is
    /// one, with the per-tile interruption poll and shard fault site of
    /// `ParallelForChecked`.
    Status ForEachTile(size_t n, const InterruptContext& interrupt,
                       const std::function<Status(size_t)>& body) const;
    /// Feeds the drained columns' outcomes back to the shared circuit
    /// breaker in one call (no-op without one, or when a drain without
    /// cell errors meets a breaker tracking no key): a column that evaluated
    /// at least one cell cleanly records a success, a column with cell
    /// errors records a failure.
    void RecordColumnOutcomes(const SessionDrainResult& result) const;
    /// Scatters share `block` of `blocks` of `suspect` into its narrow
    /// per-dense-id count row, probing from whichever side (suspect
    /// histogram vs union vocabulary) is smaller; both directions fill
    /// identical rows, at most `kScatterTile` probes per block. Returns
    /// true when the share holds a count of `kNarrowAbsent` or more, which
    /// the row cannot represent.
    bool ScatterSuspect(const Histogram& suspect, size_t block, size_t blocks,
                        uint32_t* counts) const;

    BatchDetectOptions options_;
    std::vector<SchemeKey> keys_;
    SchemeCache schemes_;
    std::vector<const WatermarkScheme*> key_scheme_;
    std::vector<DetectOptions> key_options_;
    std::vector<std::shared_ptr<const PreparedKey>> prepared_;
    std::vector<Status> key_status_;
    /// Cache fingerprints of the key column, resolved at construction —
    /// the circuit breaker's key identities. Empty when no breaker is
    /// configured.
    std::vector<std::string> key_fingerprint_;

    /// Bound pair columns: the tokens of every key's `PairTable` interned
    /// into dense ids `[0, vocab_.size())`, and all those keys' pairs,
    /// token indices remapped to dense ids, in one array — the layout
    /// both the general loop and the cell kernel read. Column `j`'s pairs
    /// are `[pair_offsets_[j], pair_offsets_[j + 1])`; the range is empty
    /// for a column detected through the scheme's histogram path.
    /// `kernel_column_[j]` is 1 when the column's cells run the AVX-512
    /// cell kernel: the CPU supports it, every modulus is narrow and the
    /// options do not rescale.
    std::vector<Token> vocab_;
    std::unordered_map<Token, uint32_t> vocab_index_;
    std::vector<PairModulusTable::PairEntry> bound_pairs_;
    std::vector<size_t> pair_offsets_;
    std::vector<uint8_t> kernel_column_;

    /// Producer-side state: the only mutable-after-construction session
    /// state, guarded so request handlers can enqueue concurrently. The
    /// CondVar wakes `kBlock` producers when a drain frees the queue.
    mutable Mutex pending_mutex_;
    std::vector<Histogram> pending_ GUARDED_BY(pending_mutex_);
    mutable CondVar pending_cv_;

    std::unique_ptr<ThreadPool> pool_;  // null → serial
  };

  /// Runs the matrix: `Run(...)[i][j]` is the detection of `keys[j]` on
  /// `suspects[i]` — `DetectChecked(suspects, {}).verdicts` of a one-chunk
  /// session, creating a transient pool when `num_threads > 1`. A cell
  /// that failed (a poisoned column, an injected fault) stays
  /// default-rejected here, indistinguishable from a rejection; callers
  /// that must tell the two apart use `Session::DetectChecked`. `keys` is
  /// taken by value and moved into the session — callers with a freshly
  /// built vector move it in copy-free.
  std::vector<std::vector<DetectResult>> Run(
      const std::vector<Histogram>& suspects,
      std::vector<SchemeKey> keys) const;

  const BatchDetectOptions& options() const { return options_; }

 private:
  BatchDetectOptions options_;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_BATCH_DETECTOR_H_
