// End-to-end marketplace benchmark: sell, trace, restart.
//
// One process drives the FreqyWM data-marketplace pipeline through the
// library's public API and writes raw measurements (latency samples, rate
// steps, counters, correctness gates) as one JSON document. `run.py` builds
// this program, runs it and turns the raw document into metrics; the
// arithmetic (percentiles, self time, the max-rate search, backlog growth)
// lives there so it can be unit-tested.
//
// Workloads (perfbench/spec.json records why each exists and its sizes):
//   sell           closed loop, one seller: EmbedDataset on the same source
//                  rows for every buyer, then a durable Escrow.
//   trace_warm     open loop: seeded Poisson arrivals of suspect histograms
//                  through one TenantSession against escrowed keys that fit
//                  the prepared-key cache, at a fixed heavy rate and a rate
//                  ladder.
//   registry_cold  closed loop: bulk durable escrow, then restart cycles
//                  whose sessions miss the cache on every key.
//
// Every workload ends with restart cycles (reopen the durable tenant, open
// a session, drain a fixed batch), so recovery is measured and gated on
// each. With --trace 1 each call into a layer is recorded as a span
// (perfbench/tracer.h) and the sell path is decomposed into the layer
// functions the scheme composes; the decomposition is gated byte-identical
// to EmbedDataset.
//
// Usage (normally through run.py, which passes the spec constants):
//   perfbench_e2e --workload sell --seed 1 --seconds 25 --trace 0
//                 --out result.json --spans spans.json --work-dir dir ...

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"
#include "analysis/tenant.h"
#include "analysis/wal.h"
#include "api/attack.h"
#include "api/factory.h"
#include "api/freqywm_scheme.h"
#include "core/eligible.h"
#include "core/secrets.h"
#include "core/select.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "crypto/secret.h"
#include "datagen/real_world.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "stats/similarity.h"
#include "tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fw = freqywm;
namespace fs = std::filesystem;

/// A benchmark-ending failure: a library call that must succeed did not.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ------------------------------------------------------------ configuration

/// Constants come from perfbench/spec.json through run.py; the defaults
/// here only make the binary runnable on its own.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  std::string out = "result.json";
  std::string spans = "spans.json";
  std::string work_dir = "perfbench-work";

  size_t threads = 3;
  size_t setup_repeats = 3;
  size_t restart_cycles = 3;
  size_t min_buyers = 100;
  size_t real_buyers = 4;
  size_t innocent_pairs = 30;
  size_t innocent_rank_window = 2000;
  size_t unrelated_histograms = 4;
  size_t batch = 8;
  size_t trace_keys = 4096;
  size_t trace_cache = 8192;
  size_t cold_keys = 32768;
  size_t cold_cache = 4096;
  size_t in_flight = 32;
  size_t pending = 32;
  size_t oracle_every = 16;
  size_t oracle_cells = 2;
  double limit_ms = 50;
  double heavy_rate = 100;
  double heavy_share = 0.6;
  std::vector<double> ladder = {100, 150, 200, 250, 300, 350, 400};
  // Suspect mix shares: exact, within-boundaries, 4%-of-boundary,
  // 10%-sampled, unrelated.
  std::vector<double> mix = {0.25, 0.2, 0.2, 0.2, 0.15};
};

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(std::stod(text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + key +
                                  "'");
    }
    kv[key.substr(2)] = argv[++i];
  }
  auto take = [&kv](const char* key) -> const std::string* {
    auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  auto size_arg = [&](const char* key, size_t* field) {
    if (const std::string* v = take(key)) *field = std::stoull(*v);
    kv.erase(key);
  };
  auto double_arg = [&](const char* key, double* field) {
    if (const std::string* v = take(key)) *field = std::stod(*v);
    kv.erase(key);
  };
  auto string_arg = [&](const char* key, std::string* field) {
    if (const std::string* v = take(key)) *field = *v;
    kv.erase(key);
  };
  string_arg("workload", &c.workload);
  string_arg("out", &c.out);
  string_arg("spans", &c.spans);
  string_arg("work-dir", &c.work_dir);
  if (const std::string* v = take("seed")) c.seed = std::stoull(*v);
  kv.erase("seed");
  if (const std::string* v = take("trace")) c.trace = *v == "1";
  kv.erase("trace");
  if (const std::string* v = take("ladder")) c.ladder = ParseList(*v);
  kv.erase("ladder");
  if (const std::string* v = take("mix")) c.mix = ParseList(*v);
  kv.erase("mix");
  double_arg("seconds", &c.seconds);
  double_arg("limit-ms", &c.limit_ms);
  double_arg("heavy-rate", &c.heavy_rate);
  double_arg("heavy-share", &c.heavy_share);
  size_arg("threads", &c.threads);
  size_arg("setup-repeats", &c.setup_repeats);
  size_arg("restart-cycles", &c.restart_cycles);
  size_arg("min-buyers", &c.min_buyers);
  size_arg("real-buyers", &c.real_buyers);
  size_arg("innocent-pairs", &c.innocent_pairs);
  size_arg("innocent-rank-window", &c.innocent_rank_window);
  size_arg("unrelated-histograms", &c.unrelated_histograms);
  size_arg("batch", &c.batch);
  size_arg("trace-keys", &c.trace_keys);
  size_arg("trace-cache", &c.trace_cache);
  size_arg("cold-keys", &c.cold_keys);
  size_arg("cold-cache", &c.cold_cache);
  size_arg("in-flight", &c.in_flight);
  size_arg("pending", &c.pending);
  size_arg("oracle-every", &c.oracle_every);
  size_arg("oracle-cells", &c.oracle_cells);
  if (!kv.empty()) {
    throw std::invalid_argument("unknown option --" + kv.begin()->first);
  }
  if (c.workload != "sell" && c.workload != "trace_warm" &&
      c.workload != "registry_cold") {
    throw std::invalid_argument("unknown workload '" + c.workload + "'");
  }
  if (c.threads < 3 || c.mix.size() != 5 || c.ladder.empty() ||
      c.real_buyers == 0 || c.batch == 0 || c.setup_repeats == 0 ||
      c.oracle_every == 0) {
    throw std::invalid_argument("invalid benchmark constants");
  }
  return c;
}

// ------------------------------------------------------------ report

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

/// One rate step of the open loop. The generator thread writes the
/// arrival-side fields and the drainer thread the verdict-side fields;
/// the main thread reads both after joining the drainer.
struct Step {
  double rate = 0;
  double duration_s = 0;
  bool heavy = false;
  int64_t t0_ns = 0;
  uint64_t arrivals = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  std::vector<double> late_ms;       // generator lateness per arrival
  std::vector<double> backlog_t_s;   // backlog samples: time into the step
  std::vector<double> backlog_n;     //   and suspects admitted, not verdicted
  std::vector<double> latency_ms;    // due time -> verdict, per suspect
  std::vector<double> done_s;        // verdict time, seconds into the step
  std::vector<double> queue_wait_ms; // due time -> drain start
  double busy_s = 0;                 // drainer time spent in DrainChecked
  uint64_t drained = 0;              // suspects those drains verdicted
};

struct GateTally {
  uint64_t checks = 0;
  uint64_t failures = 0;
  std::string detail;
};

/// Everything the run measured. Thread-safe adders: the generator and the
/// drainer report concurrently.
class Report {
 public:
  void Gate(const std::string& name, bool ok, const std::string& detail = "") {
    std::lock_guard<std::mutex> lock(mu_);
    GateTally& g = gates_[name];
    ++g.checks;
    if (!ok) {
      if (g.failures == 0) g.detail = detail;
      ++g.failures;
    }
  }

  void Sample(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }

  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += value;
  }

  void Max(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    double& slot = counters_[name];
    slot = std::max(slot, value);
  }

  void Set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] = value;
  }

  bool correct() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, g] : gates_) {
      if (g.failures > 0) return false;
    }
    return true;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Step> steps;

  bool Write(const Config& cfg, const std::string& fingerprint,
             double span_cost_ns, int64_t measure_start_ns,
             int64_t measure_end_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(cfg.out.c_str(), "w");
    if (f == nullptr) return false;
    std::string s = "{\n\"workload\":" + JsonString(cfg.workload) +
                    ",\n\"seed\":" + std::to_string(cfg.seed) +
                    ",\n\"trace\":" + (cfg.trace ? "1" : "0") +
                    ",\n\"fingerprint\":" + fingerprint +
                    ",\n\"attempted\":" + std::to_string(attempted) +
                    ",\n\"failed\":" + std::to_string(failed) +
                    ",\n\"span_cost_ns\":" + JsonNumber(span_cost_ns) +
                    ",\n\"measure_ns\":[" + std::to_string(measure_start_ns) +
                    "," + std::to_string(measure_end_ns) + "]" +
                    ",\n\"gates\":{";
    bool first = true;
    for (const auto& [name, g] : gates_) {
      s += std::string(first ? "" : ",") + "\n" + JsonString(name) +
           ":{\"checks\":" + std::to_string(g.checks) +
           ",\"failures\":" + std::to_string(g.failures) +
           ",\"detail\":" + JsonString(g.detail) + "}";
      first = false;
    }
    s += "},\n\"counters\":{";
    first = true;
    for (const auto& [name, v] : counters_) {
      s += std::string(first ? "" : ",") + "\n" + JsonString(name) + ":" +
           JsonNumber(v);
      first = false;
    }
    s += "},\n\"samples\":{";
    first = true;
    for (const auto& [name, v] : samples_) {
      s += std::string(first ? "" : ",") + "\n" + JsonString(name) + ":" +
           JsonArray(v);
      first = false;
    }
    s += "},\n\"steps\":[";
    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& st = steps[i];
      s += std::string(i ? "," : "") + "\n{\"rate\":" + JsonNumber(st.rate) +
           ",\"duration_s\":" + JsonNumber(st.duration_s) +
           ",\"heavy\":" + (st.heavy ? "true" : "false") +
           ",\"arrivals\":" + std::to_string(st.arrivals) +
           ",\"admitted\":" + std::to_string(st.admitted) +
           ",\"shed\":" + std::to_string(st.shed) +
           ",\"busy_s\":" + JsonNumber(st.busy_s) +
           ",\"drained\":" + std::to_string(st.drained) +
           ",\"late_ms\":" + JsonArray(st.late_ms) +
           ",\"backlog_t_s\":" + JsonArray(st.backlog_t_s) +
           ",\"backlog_n\":" + JsonArray(st.backlog_n) +
           ",\"latency_ms\":" + JsonArray(st.latency_ms) +
           ",\"done_s\":" + JsonArray(st.done_s) +
           ",\"queue_wait_ms\":" + JsonArray(st.queue_wait_ms) + "}";
    }
    s += "]\n}\n";
    std::fputs(s.c_str(), f);
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, GateTally> gates_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Hardware and build fingerprint of this binary's run; run.py adds the
/// source revision.
std::string Fingerprint() {
  std::string model = "unknown";
  bool sha_ni = false, avx2 = false, avx512f = false;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &a, &b, &c, &d);
      unsigned regs[4] = {a, b, c, d};
      for (int r = 0; r < 4; ++r) {
        for (int k = 0; k < 4; ++k) {
          brand[i * 16 + r * 4 + k] = static_cast<char>(regs[r] >> (8 * k));
        }
      }
    }
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    avx2 = (b >> 5) & 1;
    avx512f = (b >> 16) & 1;
    sha_ni = (b >> 29) & 1;
  }
#endif
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return std::string("{\"nproc\":") + std::to_string(nproc) +
         ",\"cpu_model\":" + JsonString(model) +
         ",\"sha_ni\":" + (sha_ni ? "true" : "false") +
         ",\"avx2\":" + (avx2 ? "true" : "false") +
         ",\"avx512f\":" + (avx512f ? "true" : "false") +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) + "}";
}

// ------------------------------------------------------------ shared steps

struct Env {
  const Config& cfg;
  Tracer& tracer;
  Report& report;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x == 0 ? 1 : x;
}

std::string Id(const char* prefix, uint64_t n) {
  return prefix + std::to_string(n);
}

/// The marketplace fingerprinting options of
/// examples/marketplace_fingerprinting.cpp, with optimal selection.
std::unique_ptr<fw::WatermarkScheme> MakeBuyerScheme(uint64_t buyer_seed) {
  fw::OptionBag bag;
  bag.Set("budget", "2.0");
  bag.Set("z", "67");
  bag.Set("min_modulus", "16");
  bag.Set("min_pair_cost", "8");
  bag.Set("strategy", "optimal");
  bag.Set("seed", std::to_string(buyer_seed));
  auto scheme = fw::SchemeFactory::Create("freqywm", bag);
  if (!scheme.ok()) throw BenchError(scheme.status().ToString());
  return std::move(scheme).value();
}

struct Delivery {
  fw::Dataset rows;
  fw::SchemeKey key;
  double similarity = 0;
};

/// One buyer's copy. Untraced: the scheme's EmbedDataset. Traced: the same
/// composition through the layer functions, one span per layer; the caller
/// gates it byte-identical to EmbedDataset (`CheckDecomposition`).
Delivery DeliverCopy(Env& env, const fw::WatermarkScheme& scheme,
                     const fw::Dataset& source, const fw::ExecContext& exec,
                     const std::string& rid) {
  if (!env.tracer.enabled()) {
    auto embedded = scheme.EmbedDataset(source, exec);
    if (!embedded.ok()) throw BenchError(embedded.status().ToString());
    return Delivery{std::move(embedded.value().watermarked),
                    std::move(embedded.value().key),
                    embedded.value().report.similarity_percent};
  }
  const auto& freqywm = dynamic_cast<const fw::FreqyWmScheme&>(scheme);
  const fw::GenerateOptions& o = freqywm.options();
  if (o.seed == 0) throw BenchError("buyer seeds must be non-zero");
  Tracer& tr = env.tracer;

  fw::Histogram hist;
  {
    ScopedSpan span(tr, "data.histogram", rid);
    hist = exec.BuildHistogram(source);
  }
  fw::WatermarkSecrets secrets;
  std::vector<fw::EligiblePair> eligible;
  {
    ScopedSpan span(tr, "core.eligible", rid);
    secrets.r = fw::GenerateSecret(o.lambda_bits, o.seed);
    fw::PairModulus modulus(secrets.r, o.modulus_bound);
    eligible = fw::BuildEligiblePairs(hist, modulus, o.eligibility,
                                      o.min_modulus, o.min_pair_cost, exec);
  }
  fw::SelectionResult selection;
  {
    ScopedSpan span(tr, "core.select", rid);
    fw::Rng rng(o.seed);
    selection = fw::SelectPairs(hist, eligible, o, rng);
  }
  if (selection.chosen.empty()) throw BenchError("no pair fits the budget");
  std::vector<size_t> applied;
  fw::Histogram watermarked;
  {
    ScopedSpan span(tr, "core.apply", rid);
    watermarked =
        fw::ApplyPairDeltas(hist, eligible, selection.chosen, &applied);
  }
  const double similarity =
      fw::HistogramSimilarityPercent(hist, watermarked, o.metric);
  secrets.z = o.modulus_bound;
  for (size_t idx : applied) {
    secrets.pairs.push_back(fw::SecretPair{
        hist.entry(eligible[idx].rank_i).token,
        hist.entry(eligible[idx].rank_j).token});
  }
  fw::Dataset rows;
  {
    ScopedSpan span(tr, "core.transform", rid);
    // WatermarkGenerator::Generate's row-placement seed.
    fw::Rng rng(o.seed + 0x517cc1b727220a95ULL);
    rows = fw::TransformDataset(source, watermarked, rng);
  }
  env.report.Add("data.histogram.rows", static_cast<double>(source.size()));
  env.report.Add("core.eligible.pairs", static_cast<double>(eligible.size()));
  env.report.Add("core.select.chosen", static_cast<double>(applied.size()));
  env.report.Add("core.transform.rows", static_cast<double>(rows.size()));
  return Delivery{std::move(rows),
                  fw::SchemeKey{"freqywm", secrets.Serialize()}, similarity};
}

/// Gate: the traced decomposition delivered exactly EmbedDataset's rows
/// and key. No-op for untraced runs, which call EmbedDataset itself.
void CheckDecomposition(Env& env, const fw::WatermarkScheme& scheme,
                        const fw::Dataset& source, const fw::ExecContext& exec,
                        const Delivery& delivery, const std::string& rid) {
  if (!env.tracer.enabled()) return;
  auto reference = scheme.EmbedDataset(source, exec);
  const bool ok = reference.ok() &&
                  reference.value().watermarked.tokens() ==
                      delivery.rows.tokens() &&
                  reference.value().key.scheme == delivery.key.scheme &&
                  reference.value().key.payload == delivery.key.payload;
  env.report.Gate("traced_embed_identical", ok,
                  rid + ": traced layer composition differs from "
                        "EmbedDataset");
}

fw::TenantQuotas DurableQuotas(const std::string& dir, size_t cache,
                               const Config& cfg) {
  fw::TenantQuotas q;
  q.durable_dir = dir;
  q.durable_sync_policy = fw::WalSyncPolicy::kGroupCommit;
  q.max_cache_entries = cache;
  q.max_in_flight_suspects = cfg.in_flight;
  q.max_pending_suspects = cfg.pending;
  return q;
}

std::string FreshDir(const Config& cfg, const std::string& name) {
  const fs::path dir = fs::path(cfg.work_dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<fw::TenantContext> OpenTenant(Env& env,
                                              const fw::TenantQuotas& quotas,
                                              const std::string& rid) {
  auto opened = [&] {
    ScopedSpan span(env.tracer, "analysis.recover", rid);
    return fw::TenantContext::Open("marketplace", quotas);
  }();
  if (!opened.ok()) throw BenchError(opened.status().ToString());
  const auto& stats = opened.value()->durable_registry()->open_stats();
  env.report.Add("analysis.recover.calls", 1);
  env.report.Add("analysis.recover.records_replayed",
                 static_cast<double>(stats.records_replayed));
  env.report.Add("analysis.recover.snapshot_loaded",
                 stats.snapshot_loaded ? 1 : 0);
  return std::move(opened).value();
}

/// Folds a tenant's public counters into the report before it goes away.
void Harvest(Env& env, const fw::TenantContext& tenant) {
  const fw::EngineHealthSnapshot h = tenant.Health();
  Report& r = env.report;
  r.Add("exec.admission.admitted", static_cast<double>(h.admission.admitted));
  r.Add("exec.admission.shed_rate", static_cast<double>(h.admission.shed_rate));
  r.Add("exec.admission.shed_capacity",
        static_cast<double>(h.admission.shed_capacity));
  r.Add("exec.admission.shed_deadline",
        static_cast<double>(h.admission.shed_deadline));
  r.Add("exec.cache.hits", static_cast<double>(h.key_cache.hits));
  r.Add("exec.cache.misses", static_cast<double>(h.key_cache.misses));
  r.Add("exec.cache.evictions", static_cast<double>(h.key_cache.evictions));
  r.Add("analysis.checkpoints",
        static_cast<double>(h.durability.checkpoints_published));
  r.Add("analysis.checkpoint_failures",
        static_cast<double>(h.durability.checkpoint_failures));
}

void Escrow(Env& env, fw::TenantContext& tenant, const std::string& buyer,
            const fw::SchemeKey& key) {
  fw::Status st;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(env.tracer, "analysis.escrow", buyer);
    st = tenant.Escrow(buyer, key);
  }
  const int64_t t1 = NowNs();
  if (!st.ok()) throw BenchError("escrow " + buyer + ": " + st.ToString());
  env.report.Sample("escrow_call_s", Seconds(t1 - t0));
  if (env.tracer.enabled()) {
    const std::string frame = fw::WriteAheadLog::EncodeFrame(
        fw::EncodeRegistration(buyer, key));
    env.report.Add("analysis.wal.bytes", static_cast<double>(frame.size()));
    env.report.Add("analysis.key.bytes",
                   static_cast<double>(key.payload.size()));
  }
}

std::unique_ptr<fw::TenantSession> OpenSession(Env& env,
                                               fw::TenantContext& tenant,
                                               size_t threads,
                                               const std::string& rid) {
  auto session = [&] {
    ScopedSpan span(env.tracer, "exec.prepare", rid);
    return tenant.OpenSession(threads);
  }();
  if (!session.ok()) throw BenchError(session.status().ToString());
  env.report.Add("exec.prepare.keys",
                 static_cast<double>(session.value()->keys().size()));
  env.report.Add("exec.prepare.calls", 1);
  const std::vector<fw::Status>& statuses = session.value()->key_statuses();
  const auto bad = std::find_if(statuses.begin(), statuses.end(),
                                [](const fw::Status& st) { return !st.ok(); });
  env.report.Gate("keys_prepare_ok", bad == statuses.end(),
                  bad == statuses.end() ? "" : rid + ": " + bad->ToString());
  return std::move(session).value();
}

/// Drain bookkeeping shared by the open loop and the closed batches.
void RecordDrain(Env& env, const fw::SessionDrainResult& r, size_t keys,
                 int64_t start_ns, int64_t end_ns) {
  Report& rep = env.report;
  rep.Add("exec.drain.calls", 1);
  rep.Add("exec.drain.suspects", static_cast<double>(r.verdicts.size()));
  rep.Add("exec.drain.cells", static_cast<double>(r.verdicts.size() * keys));
  rep.Add("exec.drain.cell_errors", static_cast<double>(r.cell_errors.size()));
  rep.Add("exec.drain.busy_s", Seconds(end_ns - start_ns));
  rep.Max("exec.queue.depth.max", static_cast<double>(r.verdicts.size()));
  rep.Gate("drain_ok", r.status.ok() && r.cell_errors.empty(),
           r.status.ToString());
}

bool TypedShed(const fw::Status& st) {
  return st.code() == fw::StatusCode::kResourceExhausted ||
         st.code() == fw::StatusCode::kDeadlineExceeded;
}

/// Submits `batch` and drains it at once (closed loop): the batch is due
/// when it is submitted.
fw::SessionDrainResult TraceBatch(Env& env, fw::TenantSession& session,
                                  std::vector<fw::Histogram> batch,
                                  const std::string& rid) {
  const size_t n = batch.size();
  const int64_t due = NowNs();
  fw::Status st;
  {
    ScopedSpan span(env.tracer, "exec.admission", rid);
    st = session.TrySubmit(std::move(batch));
  }
  if (!st.ok()) throw BenchError(rid + " batch submit: " + st.ToString());
  const int64_t start = NowNs();
  fw::SessionDrainResult r;
  {
    ScopedSpan span(env.tracer, "exec.drain", rid);
    r = session.DrainChecked({});
  }
  const int64_t end = NowNs();
  RecordDrain(env, r, session.keys().size(), start, end);
  env.report.Add("exec.queue.wait_s", Seconds(start - due) * n);
  if (r.verdicts.size() != n) throw BenchError(rid + ": drain lost suspects");
  return r;
}

using Verdicts = std::vector<std::vector<fw::DetectResult>>;

std::vector<fw::FingerprintRecord> SortedRecords(
    std::vector<fw::FingerprintRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const fw::FingerprintRecord& a, const fw::FingerprintRecord& b) {
              return a.buyer_id < b.buyer_id;
            });
  return records;
}

bool SameRecords(const std::vector<fw::FingerprintRecord>& a,
                 const std::vector<fw::FingerprintRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].buyer_id != b[i].buyer_id || a[i].key.scheme != b[i].key.scheme ||
        a[i].key.payload != b[i].key.payload) {
      return false;
    }
  }
  return true;
}

/// Restart cycles: destroy the tenant, reopen it from its durable
/// directory, open a session and drain `batch`. Gates: the recovered key
/// set equals the acknowledged set byte for byte, and the cold verdicts
/// equal `warm`. Runs at least `cfg.restart_cycles` cycles, and more while
/// `until_ns` has not passed.
void RunRestarts(Env& env, std::unique_ptr<fw::TenantContext>& tenant,
                 const fw::TenantQuotas& quotas,
                 const std::vector<fw::FingerprintRecord>& acked_sorted,
                 const std::vector<fw::Histogram>& batch, const Verdicts& warm,
                 int64_t until_ns) {
  int64_t prev_end = NowNs();
  for (size_t cycle = 0;
       cycle < env.cfg.restart_cycles || NowNs() < until_ns; ++cycle) {
    Harvest(env, *tenant);
    tenant.reset();
    std::vector<fw::Histogram> copy = batch;
    const std::string rid = Id("restart-", cycle);
    int64_t t0 = 0, t1 = 0, t2 = 0;
    fw::SessionDrainResult r;
    {
      t0 = NowNs();
      env.report.Sample("late_s", Seconds(t0 - prev_end));
      ScopedSpan root(env.tracer, "restart", rid);
      tenant = OpenTenant(env, quotas, rid);
      t1 = NowNs();
      std::unique_ptr<fw::TenantSession> session =
          OpenSession(env, *tenant, env.cfg.threads, rid);
      r = TraceBatch(env, *session, std::move(copy), rid);
      t2 = NowNs();
    }
    ++env.report.attempted;
    env.report.Sample("recover_s", Seconds(t1 - t0));
    env.report.Sample("cold_trace_s", Seconds(t2 - t1));
    env.report.Sample("restart_s", Seconds(t2 - t0));
    env.report.Gate(
        "restart_recovers_acked_keys",
        SameRecords(SortedRecords(
                        tenant->durable_registry()->Snapshot().records()),
                    acked_sorted),
        rid + ": recovered key set differs from the acknowledged set");
    env.report.Gate("cold_verdicts_equal_warm", r.verdicts == warm,
                    rid + ": cold verdicts differ from warm verdicts");
    prev_end = NowNs();
  }
}

// ------------------------------------------------------------ inputs

/// Innocent buyer keys: real FreqyWM key material (seeded secret, z 67,
/// `innocent_pairs` token-disjoint pairs from the source's top ranks, each
/// with a modulus at or above the fingerprinting floor of 16), serialized
/// exactly as escrowed keys are. Microseconds each, unlike an embed.
std::vector<fw::SchemeKey> InnocentKeys(const Config& cfg,
                                        const fw::Histogram& source,
                                        size_t count, uint64_t seed) {
  const size_t window = std::min(cfg.innocent_rank_window, source.num_tokens());
  if (window < 2 * cfg.innocent_pairs) {
    throw BenchError("source vocabulary too small for innocent keys");
  }
  fw::Rng rng(seed);
  std::vector<fw::SchemeKey> keys;
  keys.reserve(count);
  std::vector<uint8_t> used(window);
  while (keys.size() < count) {
    fw::WatermarkSecrets s;
    s.r = fw::GenerateSecret(256, rng.NextU64() | 1);
    s.z = 67;
    fw::PairModulus modulus(s.r, s.z);
    std::fill(used.begin(), used.end(), 0);
    while (s.pairs.size() < cfg.innocent_pairs) {
      size_t i = rng.UniformU64(window);
      size_t j = rng.UniformU64(window);
      if (i == j || used[i] || used[j]) continue;
      if (i > j) std::swap(i, j);
      const fw::Token& ti = source.entry(i).token;
      const fw::Token& tj = source.entry(j).token;
      if (modulus.Compute(ti, tj) < 16) continue;
      used[i] = used[j] = 1;
      s.pairs.push_back(fw::SecretPair{ti, tj});
    }
    keys.push_back(fw::SchemeKey{"freqywm", s.Serialize()});
  }
  return keys;
}

enum Kind { kExact, kWithin, kPct4, kSampled, kUnrelated, kNumKinds };
const char* const kKindNames[kNumKinds] = {"exact", "within_boundaries",
                                           "pct4_boundary", "sampled10",
                                           "unrelated"};

struct Suspect {
  fw::Histogram hist;
  Kind kind = kExact;
  int buyer = -1;  // index of the leaking real buyer; -1 = unrelated
};

/// The suspect pool: per real buyer its exact copy, the two §V-C destroy
/// attacks and a 10% sample, plus unrelated histograms of the same
/// vocabulary. Indexed `kind * buyers + buyer` for leaked kinds.
std::vector<Suspect> SuspectPool(const Config& cfg,
                                 const std::vector<fw::Histogram>& copies,
                                 uint64_t seed) {
  fw::Rng rng(seed);
  auto within = fw::MakeWithinBoundariesAttack();
  auto pct4 = fw::MakePercentOfBoundaryAttack(4.0);
  auto sampled = fw::MakeSamplingAttack(0.1);
  std::vector<Suspect> pool;
  for (int kind = kExact; kind < kUnrelated; ++kind) {
    for (size_t b = 0; b < copies.size(); ++b) {
      Suspect s;
      s.kind = static_cast<Kind>(kind);
      s.buyer = static_cast<int>(b);
      switch (s.kind) {
        case kExact: s.hist = copies[b]; break;
        case kWithin: s.hist = within->Apply(copies[b], rng); break;
        case kPct4: s.hist = pct4->Apply(copies[b], rng); break;
        default: s.hist = sampled->Apply(copies[b], rng); break;
      }
      pool.push_back(std::move(s));
    }
  }
  for (size_t u = 0; u < cfg.unrelated_histograms; ++u) {
    Suspect s;
    s.kind = kUnrelated;
    s.hist = fw::MakeEyeWnderLikeHistogram(rng);
    pool.push_back(std::move(s));
  }
  return pool;
}

/// Draws one pool index by the fixed suspect mix.
size_t PickSuspect(const Config& cfg, size_t buyers, fw::Rng& rng) {
  double u = rng.UniformDouble();
  int kind = kUnrelated;
  for (int k = 0; k < kNumKinds; ++k) {
    if (u < cfg.mix[k]) {
      kind = k;
      break;
    }
    u -= cfg.mix[k];
  }
  if (kind == kUnrelated) {
    return kUnrelated * buyers + rng.UniformU64(cfg.unrelated_histograms);
  }
  return kind * buyers + rng.UniformU64(buyers);
}

std::vector<fw::Histogram> PickBatch(const Config& cfg,
                                     const std::vector<Suspect>& pool,
                                     size_t buyers, uint64_t seed) {
  fw::Rng rng(seed);
  std::vector<fw::Histogram> batch;
  for (size_t i = 0; i < cfg.batch; ++i) {
    batch.push_back(pool[PickSuspect(cfg, buyers, rng)].hist);
  }
  return batch;
}

/// The inputs both trace workloads share: source rows, a few buyers
/// embedded for real (so leaks can be attributed), their delivered copies'
/// histograms, innocent keys up to `total_keys`, and the suspect pool.
struct TraceInputs {
  fw::Dataset rows;
  std::vector<fw::FingerprintRecord> records;  // escrow order; real first
  std::vector<Suspect> pool;
};

TraceInputs MakeTraceInputs(Env& env, size_t total_keys) {
  const Config& cfg = env.cfg;
  TraceInputs in;
  fw::Rng rng(cfg.seed);
  in.rows = fw::MakeEyeWnderLikeDataset(rng);
  std::vector<fw::Histogram> copies;
  fw::Histogram source;
  {
    fw::ThreadPool pool(cfg.threads - 1);
    fw::ExecContext exec(&pool);
    source = exec.BuildHistogram(in.rows);
    for (size_t b = 0; b < cfg.real_buyers; ++b) {
      const std::string buyer = Id("buyer-", b);
      auto scheme = MakeBuyerScheme(Mix(cfg.seed, b));
      Delivery d = DeliverCopy(env, *scheme, in.rows, exec, buyer);
      CheckDecomposition(env, *scheme, in.rows, exec, d, buyer);
      copies.push_back(exec.BuildHistogram(d.rows));
      in.records.push_back(fw::FingerprintRecord{buyer, std::move(d.key)});
    }
  }
  const size_t innocents =
      total_keys > cfg.real_buyers ? total_keys - cfg.real_buyers : 0;
  std::vector<fw::SchemeKey> keys =
      InnocentKeys(cfg, source, innocents, Mix(cfg.seed, 0x1ec0));
  for (size_t i = 0; i < keys.size(); ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "innocent-%06zu", i);
    in.records.push_back(fw::FingerprintRecord{id, std::move(keys[i])});
  }
  in.pool = SuspectPool(cfg, copies, Mix(cfg.seed, 0x5a5));
  return in;
}

// ------------------------------------------------------------ sell

void RunSell(Env& env, int64_t* measure_start, int64_t* measure_end) {
  const Config& cfg = env.cfg;
  Report& rep = env.report;
  fw::Dataset rows;
  std::unique_ptr<fw::TenantContext> tenant;
  std::unique_ptr<fw::ThreadPool> pool;
  fw::TenantQuotas quotas;
  for (size_t rep_i = 0; rep_i < cfg.setup_repeats; ++rep_i) {
    if (tenant) Harvest(env, *tenant);
    tenant.reset();
    pool.reset();
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(env.tracer, "setup", Id("setup-", rep_i));
      fw::Rng rng(cfg.seed);
      rows = fw::MakeEyeWnderLikeDataset(rng);
      pool = std::make_unique<fw::ThreadPool>(cfg.threads - 1);
      quotas = DurableQuotas(FreshDir(cfg, "sell"), 0, cfg);
      tenant = OpenTenant(env, quotas, Id("setup-", rep_i));
      // Warm-up embed (not delivered): first-touch allocation and page
      // faults land in set-up, not in the first buyer's latency.
      auto scheme = MakeBuyerScheme(Mix(cfg.seed, ~uint64_t{0}));
      (void)DeliverCopy(env, *scheme, rows, fw::ExecContext(pool.get()),
                        "warmup");
    }
    rep.Sample("setup_s", Seconds(NowNs() - t0));
  }
  fw::ExecContext exec(pool.get());

  std::vector<fw::FingerprintRecord> acked;
  std::vector<fw::Histogram> delivered;  // per buyer, for the gates
  const int64_t until = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  const size_t min_buyers = cfg.trace ? 1 : cfg.min_buyers;
  *measure_start = NowNs();
  {
    ScopedSpan root(env.tracer, "measure", "sell");
    int64_t prev_end = *measure_start;
    for (size_t b = 0; b < min_buyers || NowNs() < until; ++b) {
      const std::string buyer = Id("buyer-", b);
      auto scheme = MakeBuyerScheme(Mix(cfg.seed, b));
      const int64_t start = NowNs();
      Delivery d;
      {
        ScopedSpan span(env.tracer, "sell.buyer", buyer);
        d = DeliverCopy(env, *scheme, rows, exec, buyer);
        Escrow(env, *tenant, buyer, d.key);
      }
      const int64_t end = NowNs();
      ++rep.attempted;
      rep.Sample("op_s", Seconds(end - start));
      rep.Sample("late_s", Seconds(start - prev_end));
      rep.Sample("similarity_pct", d.similarity);
      // Gate work between buyers, outside the buyer's latency.
      CheckDecomposition(env, *scheme, rows, exec, d, buyer);
      delivered.push_back(exec.BuildHistogram(d.rows));
      acked.push_back(fw::FingerprintRecord{buyer, std::move(d.key)});
      prev_end = NowNs();
    }
  }
  *measure_end = NowNs();
  pool.reset();  // the gates and restarts below use their own threads

  // Gate: every copy self-detects under its own key (one-shot oracle) and
  // is rejected under every other buyer's key (engine matrix).
  std::vector<fw::SchemeKey> keys;
  for (const auto& r : acked) keys.push_back(r.key);
  auto oracle = MakeBuyerScheme(1);
  for (size_t i = 0; i < delivered.size(); ++i) {
    const fw::DetectResult own = oracle->Detect(
        delivered[i], keys[i], oracle->RecommendedDetectOptions(keys[i]));
    rep.Gate("sell_self_detects", own.accepted, acked[i].buyer_id);
  }
  fw::BatchDetectOptions bopts;
  bopts.num_threads = cfg.threads;
  const Verdicts matrix = fw::BatchDetector(bopts).Run(delivered, keys);
  for (size_t i = 0; i < matrix.size(); ++i) {
    for (size_t j = 0; j < matrix[i].size(); ++j) {
      rep.Gate(i == j ? "sell_self_detects" : "sell_no_cross_detection",
               matrix[i][j].accepted == (i == j),
               acked[i].buyer_id + " under " + acked[j].buyer_id);
    }
  }

  // Restarts over the sold keys; the batch is a seeded pick of copies.
  fw::Rng pick(Mix(cfg.seed, 0xba7c));
  std::vector<fw::Histogram> batch;
  for (size_t i = 0; i < cfg.batch; ++i) {
    batch.push_back(delivered[pick.UniformU64(delivered.size())]);
  }
  Verdicts warm;
  {
    ScopedSpan root(env.tracer, "restart.warm", "warm");
    auto session = OpenSession(env, *tenant, cfg.threads, "warm");
    warm = TraceBatch(env, *session, batch, "warm").verdicts;
  }
  RunRestarts(env, tenant, quotas, SortedRecords(acked), batch, warm, 0);
  Harvest(env, *tenant);
}

// ------------------------------------------------------------ trace_warm

struct PendingSuspect {
  uint64_t id = 0;
  int64_t due_ns = 0;
  uint32_t pool_index = 0;
  uint32_t step = 0;
};

struct OracleCell {
  uint32_t pool_index = 0;
  uint32_t key = 0;
  fw::DetectResult verdict;
};

/// The drainer half of the open loop: drains whatever is pending, times
/// each suspect from its due time to its verdict, and keeps the cells the
/// oracle gate will re-check.
class Drainer {
 public:
  Drainer(Env& env, fw::TenantSession& session,
          const std::vector<Suspect>& pool, const std::vector<int>& buyer_key,
          std::vector<Step>& steps)
      : env_(env),
        session_(session),
        pool_(pool),
        buyer_key_(buyer_key),
        steps_(steps),
        thread_([this] { Loop(); }) {}

  ~Drainer() { Stop(); }
  Drainer(const Drainer&) = delete;
  Drainer& operator=(const Drainer&) = delete;

  void Admitted(const PendingSuspect& p) {
    std::lock_guard<std::mutex> lock(mu_);
    admitted_.push_back(p);
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void set_step_span(uint64_t id) { step_span_.store(id); }
  uint64_t verdicted() const { return verdicted_.load(); }

  std::vector<OracleCell> oracle_cells;
  uint64_t leaked = 0, attributed = 0, false_accusations = 0;
  uint64_t kind_rows[kNumKinds] = {}, kind_true_accepted[kNumKinds] = {};

 private:
  void Loop() {
    const size_t keys = session_.keys().size();
    while (true) {
      if (session_.pending_suspects() == 0) {
        if (stop_.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      const int64_t start = NowNs();
      fw::SessionDrainResult r;
      {
        ScopedSpan span(env_.tracer, "exec.drain", Id("drain-", drains_),
                        step_span_.load());
        r = session_.DrainChecked({});
      }
      const int64_t end = NowNs();
      ++drains_;
      RecordDrain(env_, r, keys, start, end);
      if (r.verdicts.empty()) continue;
      std::vector<PendingSuspect> rows;
      for (size_t row = 0; row < r.verdicts.size(); ++row) {
        rows.push_back(TakeAdmitted());
      }
      // Steps are separated by a settle, so one drain serves one step.
      Step& st = steps_[rows.front().step];
      st.busy_s += Seconds(end - start);
      st.drained += rows.size();
      for (size_t row = 0; row < rows.size(); ++row) {
        Account(rows[row], r.verdicts[row], start, end);
      }
      verdicted_.fetch_add(r.verdicts.size());
    }
  }

  /// The next admitted suspect in arrival order. TrySubmit enqueues before
  /// the generator records the arrival, so a drain can briefly run ahead.
  PendingSuspect TakeAdmitted() {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!admitted_.empty()) {
          PendingSuspect p = admitted_.front();
          admitted_.pop_front();
          return p;
        }
      }
      std::this_thread::yield();
    }
  }

  void Account(const PendingSuspect& p,
               const std::vector<fw::DetectResult>& row, int64_t start,
               int64_t end) {
    Step& st = steps_[p.step];
    st.latency_ms.push_back((end - p.due_ns) * 1e-6);
    st.queue_wait_ms.push_back((start - p.due_ns) * 1e-6);
    st.done_s.push_back(Seconds(end - st.t0_ns));
    env_.report.Add("exec.queue.wait_s", Seconds(start - p.due_ns));

    const Suspect& s = pool_[p.pool_index];
    const int true_key = s.buyer >= 0 ? buyer_key_[s.buyer] : -1;
    size_t accepted = 0;
    bool true_accepted = false;
    for (size_t j = 0; j < row.size(); ++j) {
      if (!row[j].accepted) continue;
      ++accepted;
      if (static_cast<int>(j) == true_key) {
        true_accepted = true;
      } else {
        ++false_accusations;
      }
    }
    ++kind_rows[s.kind];
    if (true_accepted) ++kind_true_accepted[s.kind];
    if (s.buyer >= 0) {
      ++leaked;
      if (true_accepted && accepted == 1) ++attributed;
      oracle_cells.push_back({p.pool_index, static_cast<uint32_t>(true_key),
                              row[true_key]});
    }
    if (p.id % env_.cfg.oracle_every == 0) {
      fw::Rng rng(Mix(env_.cfg.seed, p.id));
      for (size_t c = 0; c < env_.cfg.oracle_cells; ++c) {
        const size_t j = rng.UniformU64(row.size());
        oracle_cells.push_back(
            {p.pool_index, static_cast<uint32_t>(j), row[j]});
      }
    }
  }

  Env& env_;
  fw::TenantSession& session_;
  const std::vector<Suspect>& pool_;
  const std::vector<int>& buyer_key_;
  std::vector<Step>& steps_;
  std::mutex mu_;
  std::deque<PendingSuspect> admitted_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> step_span_{0};
  std::atomic<uint64_t> verdicted_{0};
  uint64_t drains_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

void RunTraceWarm(Env& env, int64_t* measure_start, int64_t* measure_end) {
  const Config& cfg = env.cfg;
  Report& rep = env.report;
  TraceInputs in;
  std::unique_ptr<fw::TenantContext> tenant;
  std::unique_ptr<fw::TenantSession> session;
  fw::TenantQuotas quotas;
  for (size_t rep_i = 0; rep_i < cfg.setup_repeats; ++rep_i) {
    session.reset();
    if (tenant) Harvest(env, *tenant);
    tenant.reset();
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(env.tracer, "setup", Id("setup-", rep_i));
      in = MakeTraceInputs(env, cfg.trace_keys);
      quotas = DurableQuotas(FreshDir(cfg, "trace_warm"),
                             cfg.trace_cache, cfg);
      tenant = OpenTenant(env, quotas, Id("setup-", rep_i));
      for (const auto& r : in.records) Escrow(env, *tenant, r.buyer_id, r.key);
      // The registry fits the cache: every key is prepared here, once.
      session = OpenSession(env, *tenant, cfg.threads - 1, Id("setup-", rep_i));
    }
    rep.Sample("setup_s", Seconds(NowNs() - t0));
  }
  // Real buyers' key columns in the session's key order.
  std::vector<int> buyer_key(cfg.real_buyers, -1);
  for (size_t j = 0; j < session->keys().size(); ++j) {
    for (size_t b = 0; b < cfg.real_buyers; ++b) {
      if (session->keys()[j].payload == in.records[b].key.payload) {
        buyer_key[b] = static_cast<int>(j);
      }
    }
  }
  for (int k : buyer_key) {
    if (k < 0) throw BenchError("a real buyer key is missing from the session");
  }

  // Fixed step plan: the ladder ascending, each step preceded by a segment
  // at the heavy rate, so the heavy-rate samples span the whole run.
  const double heavy_s = cfg.seconds * cfg.heavy_share / cfg.ladder.size();
  const double step_s = cfg.seconds * (1 - cfg.heavy_share) / cfg.ladder.size();
  for (double rate : cfg.ladder) {
    rep.steps.push_back(Step{});
    rep.steps.back().rate = cfg.heavy_rate;
    rep.steps.back().duration_s = heavy_s;
    rep.steps.back().heavy = true;
    rep.steps.push_back(Step{});
    rep.steps.back().rate = rate;
    rep.steps.back().duration_s = step_s;
  }

  const size_t buyers = cfg.real_buyers;
  fw::Rng pick_rng(Mix(cfg.seed, 0x9e7));
  uint64_t next_id = 0, admitted_total = 0;
  Drainer drainer(env, *session, in.pool, buyer_key, rep.steps);
  *measure_start = NowNs();
  {
    ScopedSpan root(env.tracer, "measure", "trace_warm");
    for (size_t si = 0; si < rep.steps.size(); ++si) {
      Step& st = rep.steps[si];
      ScopedSpan step_span(env.tracer, "trace.step",
                           Id("step-", si) + "@" + std::to_string(
                               static_cast<long long>(st.rate)));
      drainer.set_step_span(step_span.id());
      fw::Rng arrivals(Mix(cfg.seed, 0xa000 + si));
      st.t0_ns = NowNs() + 1000000;
      double t = 0;
      while (true) {
        t += -std::log(1.0 - arrivals.UniformDouble()) / st.rate;
        if (t >= st.duration_s) break;
        const int64_t due = st.t0_ns + static_cast<int64_t>(t * 1e9);
        const size_t pi = PickSuspect(cfg, buyers, pick_rng);
        std::vector<fw::Histogram> one;
        one.push_back(in.pool[pi].hist);  // copied before the due time
        const int64_t wait = due - NowNs();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        const int64_t submit = NowNs();
        const uint64_t id = next_id++;
        fw::Status status;
        {
          ScopedSpan span(env.tracer, "exec.admission", Id("s-", id));
          status = session->TrySubmit(
              std::move(one),
              fw::Deadline::After(std::chrono::nanoseconds(
                  due + static_cast<int64_t>(cfg.limit_ms * 1e6) - submit)));
        }
        ++st.arrivals;
        ++rep.attempted;
        st.late_ms.push_back((submit - due) * 1e-6);
        if (status.ok()) {
          drainer.Admitted(PendingSuspect{id, due, static_cast<uint32_t>(pi),
                                          static_cast<uint32_t>(si)});
          ++st.admitted;
          ++admitted_total;
        } else {
          rep.Gate("sheds_typed", TypedShed(status), status.ToString());
          ++st.shed;
          // Shedding below the heavy rate is a failure; above it, the
          // typed shed is the expected answer to overload.
          if (st.rate <= cfg.heavy_rate) ++rep.failed;
        }
        st.backlog_t_s.push_back(Seconds(submit - st.t0_ns));
        st.backlog_n.push_back(
            static_cast<double>(admitted_total - drainer.verdicted()));
      }
      // Settle: the next step starts from an empty queue.
      const int64_t give_up = NowNs() + 60'000'000'000LL;
      while (drainer.verdicted() < admitted_total) {
        if (NowNs() > give_up) throw BenchError("drain stalled");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  *measure_end = NowNs();
  // Every admitted suspect has its verdict, so no admission unit should
  // still be leased; a non-zero count means releases were lost.
  rep.Set("trace.in_flight_after_drain",
          static_cast<double>(tenant->Health().admission.in_flight));
  drainer.Stop();

  rep.Set("trace.leaked", static_cast<double>(drainer.leaked));
  rep.Set("trace.attributed", static_cast<double>(drainer.attributed));
  rep.Set("trace.false_accusations",
          static_cast<double>(drainer.false_accusations));
  for (int k = 0; k < kNumKinds; ++k) {
    rep.Set(std::string("trace.kind.") + kKindNames[k] + ".rows",
            static_cast<double>(drainer.kind_rows[k]));
    rep.Set(std::string("trace.kind.") + kKindNames[k] + ".true_accepted",
            static_cast<double>(drainer.kind_true_accepted[k]));
  }

  // Gate: the engine's cells equal the one-shot oracle.
  auto oracle = MakeBuyerScheme(1);
  const std::vector<fw::SchemeKey>& keys = session->keys();
  std::map<std::pair<uint32_t, uint32_t>, fw::DetectResult> memo;
  for (const OracleCell& c : drainer.oracle_cells) {
    auto it = memo.find({c.pool_index, c.key});
    if (it == memo.end()) {
      const fw::SchemeKey& key = keys[c.key];
      it = memo.emplace(std::make_pair(c.pool_index, c.key),
                        oracle->Detect(in.pool[c.pool_index].hist, key,
                                       oracle->RecommendedDetectOptions(key)))
               .first;
    }
    rep.Gate("trace_cells_equal_oracle", it->second == c.verdict,
             "suspect pool entry " + std::to_string(c.pool_index) + " key " +
                 std::to_string(c.key));
  }

  // Restarts over the same registry; the warm verdicts come from the
  // measured session.
  const std::vector<fw::Histogram> batch =
      PickBatch(cfg, in.pool, buyers, Mix(cfg.seed, 0xba7c));
  Verdicts warm;
  {
    ScopedSpan root(env.tracer, "restart.warm", "warm");
    warm = TraceBatch(env, *session, batch, "warm").verdicts;
  }
  session.reset();
  RunRestarts(env, tenant, quotas, SortedRecords(in.records), batch, warm, 0);
  Harvest(env, *tenant);
}

// ------------------------------------------------------------ registry_cold

void RunRegistryCold(Env& env, int64_t* measure_start, int64_t* measure_end) {
  const Config& cfg = env.cfg;
  Report& rep = env.report;
  TraceInputs in;
  std::unique_ptr<fw::TenantContext> tenant;
  fw::TenantQuotas quotas;
  for (size_t rep_i = 0; rep_i < cfg.setup_repeats; ++rep_i) {
    if (tenant) Harvest(env, *tenant);
    tenant.reset();
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(env.tracer, "setup", Id("setup-", rep_i));
      in = MakeTraceInputs(env, cfg.cold_keys);
      quotas = DurableQuotas(FreshDir(cfg, "registry_cold"), cfg.cold_cache,
                             cfg);
      tenant = OpenTenant(env, quotas, Id("setup-", rep_i));
    }
    rep.Sample("setup_s", Seconds(NowNs() - t0));
  }
  const std::vector<fw::Histogram> batch =
      PickBatch(cfg, in.pool, cfg.real_buyers, Mix(cfg.seed, 0xba7c));
  const int64_t until = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  *measure_start = NowNs();
  {
    ScopedSpan root(env.tracer, "measure", "registry_cold");
    const int64_t escrow_start = NowNs();
    int64_t prev_end = escrow_start;
    for (const auto& r : in.records) {
      rep.Sample("late_s", Seconds(NowNs() - prev_end));
      Escrow(env, *tenant, r.buyer_id, r.key);
      ++rep.attempted;
      prev_end = NowNs();
    }
    rep.Sample("escrow_phase_s", Seconds(NowNs() - escrow_start));
    // The reference verdicts for the batch, from the live (pre-restart)
    // tenant.
    Verdicts warm;
    {
      ScopedSpan warm_root(env.tracer, "restart.warm", "warm");
      const int64_t t0 = NowNs();
      auto session = OpenSession(env, *tenant, cfg.threads, "warm");
      warm = TraceBatch(env, *session, batch, "warm").verdicts;
      rep.Sample("warm_trace_s", Seconds(NowNs() - t0));
    }
    RunRestarts(env, tenant, quotas, SortedRecords(in.records), batch, warm,
                until);
  }
  *measure_end = NowNs();
  Harvest(env, *tenant);
}

// ------------------------------------------------------------ main

/// Per-span cost of the tracer where it runs, for the tracing-overhead
/// estimate: records spans in a tight loop, then forgets them.
double CalibrateSpanCost(Tracer& tracer) {
  constexpr int kSpans = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(tracer, "calibrate", "c");
  }
  const double cost = static_cast<double>(NowNs() - t0) / kSpans;
  tracer.Clear();
  return cost;
}

int Main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
  Tracer tracer(cfg.trace);
  Report report;
  Env env{cfg, tracer, report};
  const double span_cost = cfg.trace ? CalibrateSpanCost(tracer) : 0;
  int64_t measure_start = 0, measure_end = 0;
  try {
    fs::create_directories(cfg.work_dir);
    if (cfg.workload == "sell") {
      RunSell(env, &measure_start, &measure_end);
    } else if (cfg.workload == "trace_warm") {
      RunTraceWarm(env, &measure_start, &measure_end);
    } else {
      RunRegistryCold(env, &measure_start, &measure_end);
    }
  } catch (const std::exception& e) {
    report.Gate("completed", false, e.what());
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
  }
  std::error_code ignored;
  fs::remove_all(cfg.work_dir, ignored);
  if (cfg.trace && !tracer.WriteJson(cfg.spans)) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", cfg.spans.c_str());
    return 2;
  }
  if (!report.Write(cfg, Fingerprint(), span_cost, measure_start,
                    measure_end)) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n", cfg.out.c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
