#ifndef FREQYWM_BENCH_BENCH_COMMON_H_
#define FREQYWM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "api/factory.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/watermark.h"
#include "datagen/power_law.h"
#include "exec/thread_pool.h"

namespace freqywm::bench {

/// Paper-scale synthetic histogram (§IV-A): 1K tokens, 1M samples.
inline Histogram MakeSynthetic(double alpha, uint64_t seed,
                               size_t tokens = 1000,
                               size_t samples = 1'000'000) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = alpha;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Standard generation options used across the experiment harnesses.
inline GenerateOptions MakeOptions(double budget, uint64_t z,
                                   SelectionStrategy strategy,
                                   uint64_t seed) {
  GenerateOptions o;
  o.budget_percent = budget;
  o.modulus_bound = z;
  o.strategy = strategy;
  o.seed = seed;
  return o;
}

inline const char* StrategyName(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kOptimal:
      return "optimal";
    case SelectionStrategy::kGreedy:
      return "greedy";
    case SelectionStrategy::kRandom:
      return "random";
  }
  return "?";
}

/// Number of chosen pairs averaged over `reps` seeds; 0 pairs when the
/// generator reports the (legitimate) inapplicable case.
inline double MeanChosenPairs(const Histogram& hist, GenerateOptions options,
                              int reps) {
  double total = 0;
  for (int r = 0; r < reps; ++r) {
    options.seed = options.seed * 31 + static_cast<uint64_t>(r) + 1;
    auto result = WatermarkGenerator(options).GenerateFromHistogram(hist);
    if (result.ok()) {
      total += static_cast<double>(result.value().report.chosen_pairs);
    }
  }
  return total / reps;
}

/// Scheme-API sibling of `MeanChosenPairs`: embedded units averaged over
/// `reps` seeds through `SchemeFactory`, using the same seed recurrence so
/// harnesses converted off the free functions keep comparable numbers.
inline double MeanEmbeddedUnits(const Histogram& hist,
                                const std::string& scheme_name,
                                OptionBag options, uint64_t base_seed,
                                int reps) {
  double total = 0;
  uint64_t seed = base_seed;
  for (int r = 0; r < reps; ++r) {
    seed = seed * 31 + static_cast<uint64_t>(r) + 1;
    options.Set("seed", std::to_string(seed));
    auto scheme = SchemeFactory::Create(scheme_name, options);
    if (!scheme.ok()) continue;
    auto outcome = scheme.value()->Embed(hist);
    if (outcome.ok()) {
      total += static_cast<double>(outcome.value().report.embedded_units);
    }
  }
  return total / reps;
}

inline void PrintBanner(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

/// Best (minimum) wall clock of `reps` runs of `fn` — the standard timing
/// rule of the hand-rolled perf harnesses.
inline double BestOfReps(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// True when the CI perf-smoke job is driving the bench: sizes stay the
/// same (the identity checks and speedup ratios are the payload) but
/// repetitions drop to one.
inline bool PerfSmoke() {
  const char* env = std::getenv("FREQYWM_PERF_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Where a bench writes its machine-readable BENCH_*.json: the directory
/// in $FREQYWM_BENCH_JSON_DIR when set, the working directory otherwise.
inline std::string JsonOutputPath(const std::string& filename) {
  const char* dir = std::getenv("FREQYWM_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  return std::string(dir) + "/" + filename;
}

/// The shared identity gate (DESIGN.md §12): every bench that emits a
/// BENCH_*.json artifact routes its optimized-vs-reference comparisons
/// through one of these, so CI's "fail on identity mismatch, never on
/// timing" policy has a single auditable implementation — enforced by
/// wmlint's `identity_gate` check. `Check` prints per-comparison
/// verdicts; `Finish` prints the verdict line and returns the process
/// exit status.
class IdentityGate {
 public:
  /// Records one comparison. Returns `identical` so call sites can keep
  /// feeding section-local flags into their JSON report.
  bool Check(const std::string& what, bool identical) {
    ++checks_;
    if (!identical) {
      failed_ = true;
      std::printf("IDENTITY MISMATCH: %s\n", what.c_str());
    }
    return identical;
  }

  bool all_identical() const { return !failed_; }
  size_t checks() const { return checks_; }

  /// Prints the final verdict; 0 when every `Check` passed, 1 otherwise.
  int Finish() const {
    if (failed_) {
      std::printf("\nidentity gate: FAIL (%zu comparison(s) run)\n", checks_);
      return 1;
    }
    std::printf("\nidentity gate: OK (%zu comparison(s) run)\n", checks_);
    return 0;
  }

 private:
  size_t checks_ = 0;
  bool failed_ = false;
};

/// The machine a baseline ran on, as JSON members for the top of every
/// BENCH_*.json: hardware threads, and from /proc/cpuinfo the CPU model
/// and whether it has avx512f (the cell kernel) and sha_ni. Off Linux the
/// model reads "unknown" and both flags false.
inline std::string HardwareJson() {
  std::string model = "unknown";
  std::string flags;
  if (std::FILE* cpuinfo = std::fopen("/proc/cpuinfo", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), cpuinfo) != nullptr) {
      const std::string text(line);
      const size_t colon = text.find(':');
      if (colon == std::string::npos) continue;
      std::string value = text.substr(colon + 1);
      value.erase(0, value.find_first_not_of(' '));
      value.erase(value.find_last_not_of('\n') + 1);
      if (text.rfind("model name", 0) == 0 && model == "unknown") {
        model = value;
      } else if (text.rfind("flags", 0) == 0 && flags.empty()) {
        flags = " " + value + " ";
      }
    }
    std::fclose(cpuinfo);
  }
  std::string escaped;
  for (char c : model) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  auto has = [&](const char* flag) {
    return flags.find(" " + std::string(flag) + " ") != std::string::npos
               ? "true"
               : "false";
  };
  return "\"hardware_threads\": " +
         std::to_string(ThreadPool::HardwareThreads()) +
         ",\n  \"cpu_model\": \"" + escaped + "\",\n  \"avx512f\": " +
         has("avx512f") + ",\n  \"sha_ni\": " + has("sha_ni");
}
/// Writes `content` to `path`, reporting success on stdout so CI logs show
/// where the artifact landed.
inline bool WriteJsonFile(const std::string& path,
                          const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace freqywm::bench

#endif  // FREQYWM_BENCH_BENCH_COMMON_H_
