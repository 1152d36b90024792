// In-memory span recorder for the end-to-end benchmark.
//
// A span is one call from the benchmark into a layer's public API: its
// name (the layer, e.g. "core.eligible"), start and end on the monotonic
// clock, the span that caused it, and the request it served (a buyer id,
// a suspect id, or a phase name). Spans are appended to memory while the
// benchmark runs and written once, at exit, by `WriteJson`; a disabled
// tracer records nothing and costs one branch per call site.

#ifndef FREQYWM_PERFBENCH_TRACER_H_
#define FREQYWM_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock since the first call in this
/// process. Every timestamp the benchmark reports uses this one origin.
inline int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::string request;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves a span id; the span is recorded by `Finish`.
  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }

  void Finish(SpanRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(record));
  }

  /// Writes `[[id, parent, name, request, start_ns, end_ns], ...]`.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f, "%s\n[%llu,%llu,\"%s\",\"%s\",%lld,%lld]",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.request.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

  /// Drops every recorded span (used after calibrating the per-span cost).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; cross-thread children (the drainer's spans under a rate step)
/// pass the parent id explicitly. Request ids are plain identifiers
/// (letters, digits, '-', '_', '@', '.') so they need no JSON escaping.
class ScopedSpan {
 public:
  static constexpr uint64_t kInheritParent = ~uint64_t{0};

  ScopedSpan(Tracer& tracer, const char* name, std::string request,
             uint64_t parent = kInheritParent)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    record_.id = tracer_.NextId();
    record_.parent = parent == kInheritParent ? current_ : parent;
    record_.name = name;
    record_.request = std::move(request);
    saved_current_ = current_;
    current_ = record_.id;
    record_.start_ns = NowNs();
  }

  ~ScopedSpan() {
    if (!tracer_.enabled()) return;
    record_.end_ns = NowNs();
    current_ = saved_current_;
    tracer_.Finish(std::move(record_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id of this span (0 when tracing is off), for explicit children.
  uint64_t id() const { return record_.id; }

 private:
  Tracer& tracer_;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
  static inline thread_local uint64_t current_ = 0;
};

}  // namespace perfbench

#endif  // FREQYWM_PERFBENCH_TRACER_H_
