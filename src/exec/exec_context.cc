#include "exec/exec_context.h"

#include <utility>

#include "exec/parallel_histogram.h"
#include "exec/thread_pool.h"

namespace freqywm {

bool ExecContext::parallel() const {
  return pool != nullptr && pool->num_threads() > 0;
}

Histogram ExecContext::BuildHistogram(const Dataset& dataset) const {
  if (parallel()) {
    // Never interrupted, so only an injected shard fault can fail the
    // build; the serial build returns the identical histogram.
    Result<Histogram> hist =
        BuildHistogramSharded(dataset, *pool, InterruptContext{});
    if (hist.ok()) return std::move(hist).value();
  }
  return Histogram::FromDataset(dataset);
}

Result<Histogram> ExecContext::BuildHistogramChecked(
    const Dataset& dataset) const {
  const InterruptContext interrupt = this->interrupt();
  FREQYWM_RETURN_NOT_OK(interrupt.Check());
  if (parallel()) {
    return BuildHistogramSharded(dataset, *pool, interrupt);
  }
  // Serial path: one whole-dataset "shard", interruption checked once at
  // entry above — matching the parallel path's shard-boundary granularity.
  return Histogram::FromDataset(dataset);
}

}  // namespace freqywm
