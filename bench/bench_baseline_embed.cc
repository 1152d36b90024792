// bench_baseline_embed: the ISSUE 4 acceptance harness for the parallel,
// allocation-lean baseline embedding paths (DESIGN.md §9).
//
// Sections:
//   1. WM-OBT single embed — the §VII baseline-comparison hot path. The
//      "before" side is `EmbedWmObtReference` (serial shared-Rng GA with
//      full-pass statistics and per-evaluation allocation); the "after"
//      side is `EmbedWmObt` with deterministic per-partition RNG streams,
//      incremental moments-based fitness and partition sharding at
//      1/2/4/8 threads. Byte-identity is checked between every threaded
//      run and the 1-thread run of the same path (the determinism
//      contract; the reference path is a *different*, statistically
//      equivalent stream layout — see DESIGN.md §9 — so it is compared on
//      time, not bytes).
//   2. WM-RVS embed — serial vs the parallel keyed-hash pass, byte- and
//      side-table-identity enforced.
//   3. Multi-watermark layering — 5 FreqyWM layers serial vs exec-aware,
//      byte-identity of final histogram and every layer's secrets.
//
// The process exits non-zero on any identity mismatch, never on timing.
// Speedups depend on the machine (the JSON records hardware_threads so a
// 1-core CI runner's numbers are interpretable); identity must hold
// everywhere.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/multiwatermark.h"
#include "baselines/wm_obt.h"
#include "baselines/wm_rvs.h"
#include "bench_common.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace fb = freqywm::bench;
using namespace freqywm;

namespace {

int Reps() { return fb::PerfSmoke() ? 1 : 5; }

bool SameEntries(const Histogram& a, const Histogram& b) {
  return a.entries() == b.entries();
}

}  // namespace

int main() {
  fb::PrintBanner(
      "baseline embed hot paths: WM-OBT parallel GA, WM-RVS, multi-WM",
      "system scale-out of the paper's §IV-D/§VI baselines (ISSUE 4)");

  fb::IdentityGate gate;
  std::ostringstream json;
  json << "{\n  \"bench\": \"baseline_embed\",\n  \"reps\": " << Reps()
       << ",\n  " << fb::HardwareJson() << ",\n";

  // ------------------------------------------------ WM-OBT single embed
  Histogram hist = fb::MakeSynthetic(0.5, 42, 2000, 2'000'000);
  WmObtOptions obt;  // paper defaults: 20 partitions, pop 40, 60 generations
  std::printf("WM-OBT embed: %zu tokens, %zu partitions, population %zu, "
              "%zu generations\n\n",
              hist.num_tokens(), obt.num_partitions, obt.population,
              obt.generations);

  Histogram reference;
  double ref_best = fb::BestOfReps(Reps(), [&] {
    Rng rng(obt.key_seed);
    reference = EmbedWmObtReference(hist, obt, rng);
  });
  std::printf("%-28s %12.4f s  %9s\n", "reference (PR 3 serial GA)",
              ref_best, "1.00x");

  Histogram serial;
  double serial_best = fb::BestOfReps(Reps(), [&] {
    serial = EmbedWmObt(hist, obt);
  });
  std::printf("%-28s %12.4f s  %8.2fx   (single-thread win: incremental "
              "fitness + stream layout)\n",
              "incremental, 1 thread", serial_best, ref_best / serial_best);

  json << "  \"wm_obt\": {\"tokens\": " << hist.num_tokens()
       << ", \"partitions\": " << obt.num_partitions
       << ", \"population\": " << obt.population
       << ", \"generations\": " << obt.generations
       << ", \"reference_seconds\": " << ref_best
       << ", \"incremental_serial_seconds\": " << serial_best
       << ", \"single_thread_speedup\": " << ref_best / serial_best
       << ", \"rows\": [";

  double best_speedup_vs_reference = ref_best / serial_best;
  bool first_row = true;
  for (size_t threads : {2, 4, 8}) {
    // `threads` is total parallelism: this thread helps, so threads-1
    // workers.
    ThreadPool pool(threads - 1);
    ExecContext exec{&pool};
    Histogram parallel;
    double best = fb::BestOfReps(Reps(), [&] {
      parallel = EmbedWmObt(hist, obt, exec);
    });
    bool identical = gate.Check(
        "WM-OBT @" + std::to_string(threads) + " threads vs 1-thread",
        SameEntries(parallel, serial));
    best_speedup_vs_reference =
        std::max(best_speedup_vs_reference, ref_best / best);
    std::printf("%9zu threads             %12.4f s  %8.2fx   vs reference "
                "%.2fx  %s\n",
                threads, best, serial_best / best, ref_best / best,
                identical ? "identical to 1-thread" : "MISMATCH");
    json << (first_row ? "" : ", ") << "{\"threads\": " << threads
         << ", \"seconds\": " << best << ", \"speedup_vs_serial\": "
         << serial_best / best << ", \"speedup_vs_reference\": "
         << ref_best / best << ", \"identical\": "
         << (identical ? "true" : "false") << "}";
    first_row = false;
  }
  json << "], \"best_speedup_vs_reference\": " << best_speedup_vs_reference
       << "},\n";

  // --------------------------------------------------- WM-RVS embed
  Histogram rvs_hist = fb::MakeSynthetic(0.6, 7, 200'000, 4'000'000);
  WmRvsOptions rvs;
  std::printf("\nWM-RVS embed: %zu tokens (one keyed SHA-256 each)\n",
              rvs_hist.num_tokens());

  WmRvsSideTable rvs_serial_side;
  Histogram rvs_serial;
  double rvs_serial_best = fb::BestOfReps(Reps(), [&] {
    rvs_serial = EmbedWmRvs(rvs_hist, rvs, &rvs_serial_side);
  });
  std::printf("%-28s %12.4f s  %9s\n", "serial", rvs_serial_best, "1.00x");
  json << "  \"wm_rvs\": {\"tokens\": " << rvs_hist.num_tokens()
       << ", \"serial_seconds\": " << rvs_serial_best << ", \"rows\": [";
  first_row = true;
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads - 1);
    ExecContext exec{&pool};
    WmRvsSideTable side;
    Histogram parallel;
    double best = fb::BestOfReps(Reps(), [&] {
      parallel = EmbedWmRvs(rvs_hist, rvs, &side, exec);
    });
    bool identical = SameEntries(parallel, rvs_serial) &&
                     side.entries.size() == rvs_serial_side.entries.size();
    for (size_t i = 0; identical && i < side.entries.size(); ++i) {
      identical = side.entries[i].token == rvs_serial_side.entries[i].token &&
                  side.entries[i].digit_position ==
                      rvs_serial_side.entries[i].digit_position &&
                  side.entries[i].original_digit ==
                      rvs_serial_side.entries[i].original_digit;
    }
    identical = gate.Check(
        "WM-RVS @" + std::to_string(threads) + " threads vs serial",
        identical);
    std::printf("%9zu threads             %12.4f s  %8.2fx   %s\n", threads,
                best, rvs_serial_best / best,
                identical ? "identical to serial" : "MISMATCH");
    json << (first_row ? "" : ", ") << "{\"threads\": " << threads
         << ", \"seconds\": " << best << ", \"speedup\": "
         << rvs_serial_best / best << ", \"identical\": "
         << (identical ? "true" : "false") << "}";
    first_row = false;
  }
  json << "]},\n";

  // ------------------------------------------- multi-watermark layering
  Histogram mwm_hist = fb::MakeSynthetic(0.5, 21, 2000, 2'000'000);
  GenerateOptions mwm =
      fb::MakeOptions(2.0, 131, SelectionStrategy::kGreedy, 77);
  constexpr size_t kLayers = 5;
  std::printf("\nmulti-watermark: %zu FreqyWM layers on %zu tokens\n",
              kLayers, mwm_hist.num_tokens());

  Result<MultiWatermarkResult> mwm_serial = Status::Internal("not yet run");
  double mwm_serial_best = fb::BestOfReps(Reps(), [&] {
    mwm_serial = ApplySuccessiveWatermarks(mwm_hist, kLayers, mwm);
  });
  if (!mwm_serial.ok()) {
    std::printf("multi-watermarking failed: %s\n",
                mwm_serial.status().ToString().c_str());
    return 1;
  }
  std::printf("%-28s %12.4f s  %9s\n", "serial", mwm_serial_best, "1.00x");
  json << "  \"multiwatermark\": {\"layers\": " << kLayers
       << ", \"tokens\": " << mwm_hist.num_tokens()
       << ", \"serial_seconds\": " << mwm_serial_best << ", \"rows\": [";
  first_row = true;
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads - 1);
    ExecContext exec{&pool};
    Result<MultiWatermarkResult> parallel = Status::Internal("not yet run");
    double best = fb::BestOfReps(Reps(), [&] {
      parallel = ApplySuccessiveWatermarks(mwm_hist, kLayers, mwm, exec);
    });
    bool identical =
        parallel.ok() &&
        SameEntries(parallel.value().final_histogram,
                    mwm_serial.value().final_histogram) &&
        parallel.value().layers == mwm_serial.value().layers;
    identical = gate.Check(
        "multi-watermark @" + std::to_string(threads) + " threads vs serial",
        identical);
    std::printf("%9zu threads             %12.4f s  %8.2fx   %s\n", threads,
                best, mwm_serial_best / best,
                identical ? "identical to serial" : "MISMATCH");
    json << (first_row ? "" : ", ") << "{\"threads\": " << threads
         << ", \"seconds\": " << best << ", \"speedup\": "
         << mwm_serial_best / best << ", \"identical\": "
         << (identical ? "true" : "false") << "}";
    first_row = false;
  }
  json << "]},\n  \"all_identical\": "
       << (gate.all_identical() ? "true" : "false") << "\n}\n";

  fb::WriteJsonFile(fb::JsonOutputPath("BENCH_baseline_embed.json"),
                    json.str());
  return gate.Finish();
}
