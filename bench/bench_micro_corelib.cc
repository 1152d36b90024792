// Micro-benchmarks (google-benchmark) for the core library primitives and
// the Gen/Detect costs behind Table II's timing columns: SHA-256, pair
// modulus derivation (full re-hash vs midstate reduce), eligible-pair
// construction (unpruned reference vs the pruned midstate scan), the three
// selection strategies, end-to-end generation, detection (uncached
// reference vs the per-key modulus table), and the dataset transform
// (serial oracle vs the sharded overload that reuses the source histogram),
// the batch engine's session drain in the trace workload's shape (on
// borrowed suspects, and on claimed ones it destroys), the drain's cell
// loop alone (general pair loop vs the AVX-512 cell kernel), and a
// suspect histogram copy.
//
// After the google-benchmark run, main() executes the pair-enumeration
// acceptance harness (ISSUE 3): BuildEligiblePairsReference vs
// BuildEligiblePairs at 10k tokens, serial and sharded at 2/4/8 threads,
// with a byte-identity check, and writes the machine-readable
// BENCH_pair_enum.json perf baseline. Exit status is non-zero iff an
// identity check fails — never because of timing. The harness costs two
// full 50M-hash reference scans, so it only runs when FREQYWM_PERF_SMOKE
// (CI) or FREQYWM_BENCH_JSON_DIR (baseline regeneration) is set — plain
// google-benchmark invocations stay cheap.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/detect.h"
#include "core/eligible.h"
#include "core/select.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "crypto/sha256.h"
#include "datagen/power_law.h"
#include "datagen/real_world.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

Histogram MakeHist(size_t tokens, size_t samples, double alpha,
                   uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = alpha;
  return GeneratePowerLawHistogram(spec, rng);
}

void BM_Sha256_64B(benchmark::State& state) {
  std::string data(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_PairModulus(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pm.Compute("token" + std::to_string(i++ % 100), "other"));
  }
}
BENCHMARK(BM_PairModulus);

// Before/after counter for the per-pair derivation: the bulk-scan shape
// (one outer token against many inner digests), full re-hash vs one
// midstate clone per reduction.
void BM_PairModulusInnerLoop_Rehash(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  std::vector<Sha256::Digest> inner;
  for (int j = 0; j < 64; ++j) {
    inner.push_back(pm.InnerDigest("token" + std::to_string(j)));
  }
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pm.ComputeWithInner("outer-token", inner[j++ % inner.size()]));
  }
}
BENCHMARK(BM_PairModulusInnerLoop_Rehash);

void BM_PairModulusInnerLoop_Midstate(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  std::vector<Sha256::Digest> inner;
  for (int j = 0; j < 64; ++j) {
    inner.push_back(pm.InnerDigest("token" + std::to_string(j)));
  }
  PairModulus::OuterState outer = pm.OuterFor("outer-token");
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(outer.Reduce(inner[j++ % inner.size()]));
  }
}
BENCHMARK(BM_PairModulusInnerLoop_Midstate);

// "Before": the unpruned one-hash-per-pair scan shipped by PR 2.
void BM_BuildEligiblePairs_Reference(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 2);
  WatermarkSecret secret = GenerateSecret(256, 3);
  PairModulus pm(secret, 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEligiblePairsReference(
        hist, pm, EligibilityRule::kPaper, 2, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_BuildEligiblePairs_Reference)->Arg(100)->Arg(300)->Arg(1000)
    ->Complexity(benchmark::oNSquared);

// "After": midstate reuse + dead-token / freq-diff pruning (serial).
void BM_BuildEligiblePairs(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 2);
  WatermarkSecret secret = GenerateSecret(256, 3);
  PairModulus pm(secret, 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_BuildEligiblePairs)->Arg(100)->Arg(300)->Arg(1000)
    ->Complexity(benchmark::oNSquared);

void BM_Selection(benchmark::State& state, SelectionStrategy strategy) {
  Histogram hist = MakeHist(500, 500000, 0.7, 4);
  WatermarkSecret secret = GenerateSecret(256, 5);
  PairModulus pm(secret, 131);
  auto eligible = BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
  GenerateOptions o;
  o.strategy = strategy;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectPairs(hist, eligible, o, rng));
  }
}
BENCHMARK_CAPTURE(BM_Selection, optimal, SelectionStrategy::kOptimal);
BENCHMARK_CAPTURE(BM_Selection, greedy, SelectionStrategy::kGreedy);
BENCHMARK_CAPTURE(BM_Selection, random, SelectionStrategy::kRandom);

void BM_WmGenerate(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 7);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 8;
  WatermarkGenerator gen(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateFromHistogram(hist));
  }
}
BENCHMARK(BM_WmGenerate)->Arg(100)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Detection fixture shared by the three BM_WmDetect counters.
struct DetectFixture {
  Histogram watermarked;
  WatermarkSecrets secrets;
  DetectOptions options;
  bool ok = false;
};

DetectFixture MakeDetectFixture() {
  DetectFixture f;
  Histogram hist = MakeHist(1000, 1'000'000, 0.7, 9);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 10;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(hist);
  if (!r.ok()) return f;
  f.watermarked = r.value().watermarked;
  f.secrets = r.value().report.secrets;
  f.options.pair_threshold = 0;
  f.options.min_pairs = 1;
  f.ok = true;
  return f;
}

// "Before": two hashes per stored pair, every call.
void BM_WmDetect_Reference(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermarkReference(f.watermarked, f.secrets, f.options));
  }
}
BENCHMARK(BM_WmDetect_Reference);

// "After", serial shape: the table is rebuilt per call (inner digests and
// outer midstates still dedupe across pairs).
void BM_WmDetect(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermark(f.watermarked, f.secrets, f.options));
  }
}
BENCHMARK(BM_WmDetect);

// "After", batch shape: one PairModulusTable reused across calls — the
// per-suspect cost of the batch engine's hot loop (zero hashes).
void BM_WmDetect_TableReuse(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  PairModulusTable table = PairModulusTable::Build(f.secrets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermark(f.watermarked, table, f.options));
  }
}
BENCHMARK(BM_WmDetect_TableReuse);

void BM_HistogramFromDataset(benchmark::State& state) {
  Rng rng(11);
  PowerLawSpec spec;
  spec.num_tokens = 1000;
  spec.sample_size = static_cast<size_t>(state.range(0));
  spec.alpha = 0.7;
  Dataset data = GeneratePowerLawDataset(spec, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::FromDataset(data));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HistogramFromDataset)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Transform fixture shared by the two BM_TransformDataset counters: the
// 1.2M-row eyeWnder stand-in and a real FreqyWM target under the
// marketplace fingerprinting options, built once.
struct TransformFixture {
  Dataset rows;
  Histogram source;
  Histogram target;
  bool ok = false;
};

const TransformFixture& GetTransformFixture() {
  static const TransformFixture* fixture = [] {
    auto* f = new TransformFixture;
    Rng rng(12);
    f->rows = MakeEyeWnderLikeDataset(rng);
    f->source = Histogram::FromDataset(f->rows);
    GenerateOptions o;
    o.budget_percent = 2.0;
    o.modulus_bound = 67;
    o.min_modulus = 16;
    o.min_pair_cost = 8;
    o.seed = 13;
    auto r = WatermarkGenerator(o).GenerateFromHistogram(f->source);
    if (r.ok()) {
      f->target = std::move(r.value().watermarked);
      f->ok = true;
    }
    return f;
  }();
  return *fixture;
}

// "Before": the serial oracle, which rebuilds the source histogram.
void BM_TransformDataset_Reference(benchmark::State& state) {
  const TransformFixture& f = GetTransformFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  for (auto _ : state) {
    Rng rng(14);
    Dataset out = TransformDataset(f.rows, f.target, rng);
    benchmark::DoNotOptimize(out.tokens().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.rows.size()));
}
BENCHMARK(BM_TransformDataset_Reference)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// "After": the sharded overload; the argument is the pool's worker count
// (0 = serial context, no pool; the caller thread always helps).
void BM_TransformDataset(benchmark::State& state) {
  const TransformFixture& f = GetTransformFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  const size_t workers = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const ExecContext exec(pool.get());
  for (auto _ : state) {
    Rng rng(14);
    Dataset out = TransformDataset(f.rows, f.source, f.target, rng, exec);
    benchmark::DoNotOptimize(out.tokens().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.rows.size()));
}
BENCHMARK(BM_TransformDataset)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Session-drain fixture in the shape of the end-to-end trace workload:
// 4,096 innocent-style FreqyWM keys (30 token-disjoint pairs each from the
// eyeWnder stand-in's top 2,000 ranks, z 67, every modulus at or above the
// fingerprinting floor of 16) and eyeWnder stand-in suspects, prepared
// once into a 2-thread session (the caller plus one pool worker).
struct SessionDrainFixture {
  std::vector<WatermarkSecrets> secrets;
  std::vector<Histogram> suspects;
  std::unique_ptr<BatchDetector::Session> session;
};

const SessionDrainFixture& GetSessionDrainFixture() {
  static const SessionDrainFixture* fixture = [] {
    constexpr size_t kKeys = 4096;
    constexpr size_t kPairs = 30;
    constexpr size_t kWindow = 2000;
    auto* f = new SessionDrainFixture;
    Rng rng(21);
    const Histogram source = MakeEyeWnderLikeHistogram(rng);
    std::vector<SchemeKey> keys;
    std::vector<uint8_t> used(kWindow);
    while (keys.size() < kKeys) {
      WatermarkSecrets s;
      s.r = GenerateSecret(256, rng.NextU64() | 1);
      s.z = 67;
      PairModulus modulus(s.r, s.z);
      std::fill(used.begin(), used.end(), 0);
      while (s.pairs.size() < kPairs) {
        size_t i = rng.UniformU64(kWindow);
        size_t j = rng.UniformU64(kWindow);
        if (i == j || used[i] || used[j]) continue;
        if (i > j) std::swap(i, j);
        const Token& ti = source.entry(i).token;
        const Token& tj = source.entry(j).token;
        if (modulus.Compute(ti, tj) < 16) continue;
        used[i] = used[j] = 1;
        s.pairs.push_back(SecretPair{ti, tj});
      }
      keys.push_back(SchemeKey{"freqywm", s.Serialize()});
      f->secrets.push_back(std::move(s));
    }
    for (uint64_t seed = 22; seed < 30; ++seed) {
      Rng suspect_rng(seed);
      f->suspects.push_back(MakeEyeWnderLikeHistogram(suspect_rng));
    }
    BatchDetectOptions options;
    options.num_threads = 2;
    f->session =
        std::make_unique<BatchDetector::Session>(options, std::move(keys));
    return f;
  }();
  return *fixture;
}

// One failure-aware drain of a batch of `range(0)` suspects against the
// 4,096-key column: the scatter and the cell matrix of
// `Session::DrainChecked`, without the queue claim (which would copy the
// suspect histograms into the queue each iteration). Reports the time per
// matrix cell and the suspects verdicted per second.
void BM_SessionDrain(benchmark::State& state) {
  const SessionDrainFixture& f = GetSessionDrainFixture();
  const size_t batch = static_cast<size_t>(state.range(0));
  const std::vector<Histogram> suspects(f.suspects.begin(),
                                        f.suspects.begin() + batch);
  const size_t keys = f.session->keys().size();
  for (auto _ : state) {
    SessionDrainResult r =
        f.session->DetectChecked(suspects, InterruptContext{});
    benchmark::DoNotOptimize(r.verdicts.data());
  }
  const double suspects_done =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  state.counters["suspects/s"] =
      benchmark::Counter(suspects_done, benchmark::Counter::kIsRate);
  state.counters["s/cell"] = benchmark::Counter(
      suspects_done * static_cast<double>(keys),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SessionDrain)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The drain as the trace workload pays for it: copies of `range(0)`
// suspects are enqueued untimed, then `DrainChecked` claims and owns
// them, so the timed region includes destroying the claimed histograms.
void BM_SessionDrainOwned(benchmark::State& state) {
  const SessionDrainFixture& f = GetSessionDrainFixture();
  const size_t batch = static_cast<size_t>(state.range(0));
  const std::vector<Histogram> suspects(f.suspects.begin(),
                                        f.suspects.begin() + batch);
  for (auto _ : state) {
    state.PauseTiming();
    if (!f.session->Submit(suspects, SubmitPolicy::kShed, {}).ok()) {
      state.SkipWithError("Submit failed");
      break;
    }
    state.ResumeTiming();
    SessionDrainResult r = f.session->DrainChecked(InterruptContext{});
    benchmark::DoNotOptimize(r.verdicts.data());
  }
  state.counters["suspects/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionDrainOwned)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The drain's cell loop alone: the session drain fixture's 4,096 keys
// bound to dense ids the way a session binds them, and its first suspect
// scattered once into a narrow count row. One iteration evaluates every
// column over that row with the general pair loop (`kernel` false) or
// the AVX-512 cell kernel; both must give the same verdicts. Reports the
// time per pair.
struct CellKernelFixture {
  std::vector<PairModulusTable::PairEntry> pairs;
  std::vector<size_t> offsets;
  std::vector<uint32_t> row;
};

const CellKernelFixture& GetCellKernelFixture() {
  static const CellKernelFixture* fixture = [] {
    const SessionDrainFixture& drain = GetSessionDrainFixture();
    auto* f = new CellKernelFixture;
    std::unordered_map<Token, uint32_t> ids;
    std::vector<Token> vocab;
    f->offsets.push_back(0);
    for (const WatermarkSecrets& secrets : drain.secrets) {
      const PairModulusTable table = PairModulusTable::Build(secrets);
      std::vector<uint32_t> dense;
      for (const Token& token : table.tokens()) {
        auto [it, inserted] =
            ids.emplace(token, static_cast<uint32_t>(vocab.size()));
        if (inserted) vocab.push_back(token);
        dense.push_back(it->second);
      }
      for (const PairModulusTable::PairEntry& pair : table.pairs()) {
        f->pairs.push_back({dense[pair.token_i], dense[pair.token_j], pair.s});
      }
      f->offsets.push_back(f->pairs.size());
    }
    for (const Token& token : vocab) {
      const std::optional<uint64_t> count =
          drain.suspects.front().CountOf(token);
      f->row.push_back(count ? static_cast<uint32_t>(*count) : kNarrowAbsent);
    }
    return f;
  }();
  return *fixture;
}

void BM_CellKernel(benchmark::State& state, bool kernel) {
  const CellKernelFixture& f = GetCellKernelFixture();
  if (kernel && !CellKernelSupported()) {
    state.SkipWithError("CPU lacks avx512f/avx512vl");
    return;
  }
  DetectOptions options;
  options.min_pairs = 1;
  const size_t columns = f.offsets.size() - 1;
  auto run = [&](bool use_kernel, std::vector<DetectResult>& out) {
    for (size_t j = 0; j < columns; ++j) {
      const PairModulusTable::PairEntry* pairs = f.pairs.data() + f.offsets[j];
      const size_t n = f.offsets[j + 1] - f.offsets[j];
      out[j] = use_kernel
                   ? DetectWatermarkCellKernel(pairs, n, f.row.data(), options)
                   : DetectWatermark(pairs, n, f.row.data(), options);
    }
  };
  std::vector<DetectResult> verdicts(columns);
  std::vector<DetectResult> general(columns);
  run(false, general);
  run(kernel, verdicts);
  if (verdicts != general) {
    state.SkipWithError("kernel verdicts differ from the general loop");
    return;
  }
  for (auto _ : state) {
    run(kernel, verdicts);
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.counters["s/pair"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(f.pairs.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_CellKernel, general, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CellKernel, avx512, true)->Unit(benchmark::kMicrosecond);

// Copying and destroying one suspect: the 11,476-token eyeWnder stand-in
// the drain fixture traces first.
void BM_HistogramCopy(benchmark::State& state) {
  static const Histogram* stand_in = [] {
    Rng rng(22);
    return new Histogram(MakeEyeWnderLikeHistogram(rng));
  }();
  const Histogram& suspect = *stand_in;
  for (auto _ : state) {
    Histogram copy = suspect;
    benchmark::DoNotOptimize(copy.entries().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(suspect.num_tokens()));
}
BENCHMARK(BM_HistogramCopy)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------------
// Pair-enumeration acceptance harness (runs after the google-benchmark
// pass): before/after wall clock at 10k tokens + identity checks +
// BENCH_pair_enum.json.

int RunPairEnumAcceptance() {
  if (!bench::PerfSmoke() &&
      std::getenv("FREQYWM_BENCH_JSON_DIR") == nullptr) {
    std::printf("\n(pair-enumeration acceptance harness skipped; set "
                "FREQYWM_PERF_SMOKE=1 or FREQYWM_BENCH_JSON_DIR to run "
                "it)\n");
    return 0;
  }
  struct Workload {
    const char* name;
    size_t tokens;
    size_t samples;
  };
  // eyewnder_like mirrors the paper's URL histogram shape (~100 samples
  // per token: long tie-heavy tail, where dead-token pruning bites);
  // dense_tail is the harder case for pruning (~1000 samples per token).
  const Workload workloads[] = {
      {"eyewnder_like_10k", 10000, 1'000'000},
      {"dense_tail_10k", 10000, 10'000'000},
  };
  const int reps = bench::PerfSmoke() ? 1 : 2;
  const uint64_t z = 1031;
  bench::IdentityGate gate;

  std::printf("\npair enumeration at 10k tokens: reference (PR 2) vs "
              "midstate+pruning (z=%llu, kPaper, min_pair_cost=1)\n",
              static_cast<unsigned long long>(z));
  std::ostringstream json;
  json << "{\n  \"bench\": \"pair_enum\",\n  " << bench::HardwareJson()
       << ",\n  \"z\": " << z << ",\n  \"reps\": " << reps
       << ",\n  \"workloads\": [\n";

  for (size_t w = 0; w < 2; ++w) {
    const Workload& load = workloads[w];
    Histogram hist = MakeHist(load.tokens, load.samples, 0.7, 21);
    WatermarkSecret secret = GenerateSecret(256, 22);
    PairModulus pm(secret, z);

    std::vector<EligiblePair> reference;
    double ref_seconds = bench::BestOfReps(reps, [&] {
      reference = BuildEligiblePairsReference(hist, pm,
                                              EligibilityRule::kPaper, 2, 1);
    });
    std::vector<EligiblePair> optimized;
    double serial_seconds = bench::BestOfReps(reps, [&] {
      optimized =
          BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
    });
    bool serial_identical = gate.Check(
        std::string(load.name) + ": serial scan vs reference",
        optimized == reference);

    std::printf("\n[%s] tokens=%zu samples=%zu |Le|=%zu\n", load.name,
                load.tokens, load.samples, reference.size());
    std::printf("%16s  %10.3fs  %8s\n", "reference", ref_seconds, "1.00x");
    std::printf("%16s  %10.3fs  %7.2fx  %s\n", "serial", serial_seconds,
                ref_seconds / serial_seconds,
                serial_identical ? "identical" : "MISMATCH");

    json << "    {\"name\": \"" << load.name << "\", \"tokens\": "
         << load.tokens << ", \"samples\": " << load.samples
         << ", \"eligible_pairs\": " << reference.size()
         << ",\n     \"reference_seconds\": " << ref_seconds
         << ", \"serial_seconds\": " << serial_seconds
         << ", \"serial_speedup\": " << ref_seconds / serial_seconds
         << ", \"serial_identical\": "
         << (serial_identical ? "true" : "false")
         << ",\n     \"parallel\": [";

    bool first_row = true;
    for (size_t threads : {2, 4, 8}) {
      ThreadPool pool(threads - 1);
      ExecContext exec{&pool};
      std::vector<EligiblePair> parallel;
      double seconds = bench::BestOfReps(reps, [&] {
        parallel = BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2,
                                      1, exec);
      });
      bool identical = gate.Check(
          std::string(load.name) + " @" + std::to_string(threads) +
              " threads vs reference",
          parallel == reference);
      std::printf("%9zu thread  %10.3fs  %7.2fx  %s\n", threads, seconds,
                  ref_seconds / seconds,
                  identical ? "identical" : "MISMATCH");
      json << (first_row ? "" : ", ") << "{\"threads\": " << threads
           << ", \"seconds\": " << seconds << ", \"speedup_vs_reference\": "
           << ref_seconds / seconds << ", \"identical\": "
           << (identical ? "true" : "false") << "}";
      first_row = false;
    }
    json << "]}" << (w + 1 < 2 ? "," : "") << "\n";
  }
  json << "  ],\n  \"all_identical\": "
       << (gate.all_identical() ? "true" : "false") << "\n}\n";
  bench::WriteJsonFile(bench::JsonOutputPath("BENCH_pair_enum.json"),
                       json.str());
  return gate.Finish();
}

}  // namespace
}  // namespace freqywm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return freqywm::RunPairEnumAcceptance();
}
