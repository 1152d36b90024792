// The one-shot reference that session drains are compared with: each
// cell is the scheme's own `WatermarkScheme::Detect` on the key — no
// session, no preparation, no pair binding, no cache.

#ifndef FREQYWM_TESTS_EXEC_ONE_SHOT_REFERENCE_H_
#define FREQYWM_TESTS_EXEC_ONE_SHOT_REFERENCE_H_

#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "data/histogram.h"

namespace freqywm {

/// `result[i][j]` is `Detect(suspects[i], keys[j], options)` under the
/// key scheme's `RecommendedDetectOptions(keys[j])`. A key whose scheme
/// is not registered leaves its column default-rejected, the session's
/// convention.
inline std::vector<std::vector<DetectResult>> OneShotVerdicts(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  std::vector<std::vector<DetectResult>> results(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t j = 0; j < keys.size(); ++j) {
    auto scheme = SchemeFactory::Create(keys[j].scheme);
    if (!scheme.ok()) continue;
    const DetectOptions options =
        scheme.value()->RecommendedDetectOptions(keys[j]);
    for (size_t i = 0; i < suspects.size(); ++i) {
      results[i][j] = scheme.value()->Detect(suspects[i], keys[j], options);
    }
  }
  return results;
}

}  // namespace freqywm

#endif  // FREQYWM_TESTS_EXEC_ONE_SHOT_REFERENCE_H_
