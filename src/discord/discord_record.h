#ifndef GVA_DISCORD_DISCORD_RECORD_H_
#define GVA_DISCORD_DISCORD_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "timeseries/interval.h"

namespace gva {

/// One discovered discord: the subsequence whose distance to its nearest
/// non-self match is (locally) the largest.
struct DiscordRecord {
  /// Start position in the series.
  size_t position = 0;
  /// Subsequence length. Fixed-length algorithms report the window size;
  /// RRA reports variable rule-interval lengths.
  size_t length = 0;
  /// Distance to the nearest non-self match. For RRA this is the
  /// length-normalized distance of paper Eq. (1).
  double distance = 0.0;
  /// Start position of the nearest non-self match.
  size_t nn_position = 0;
  /// Grammar rule the interval came from (RRA only); -1 for zero-coverage
  /// gap intervals, -2 when not applicable (HOTSAX / brute force).
  int32_t rule = -2;

  Interval span() const { return Interval{position, position + length}; }
};

/// Result of a discord search: ranked discords (best first) plus the
/// search-progress accounting — the paper's efficiency metric (Table 1) and
/// its decomposition.
///
/// Determinism: discords and candidates_visited are bit-identical for every
/// thread count. The call split and candidates_pruned depend on where
/// cross-thread pruning cut each losing scan, so for the shared-best
/// searches (HOTSAX, RRA) they are reproducible only at num_threads == 1;
/// brute force abandons against per-candidate state only, so there every
/// field is thread-count-invariant.
struct DiscordResult {
  std::vector<DiscordRecord> discords;
  /// Total distance-function calls (completed + abandoned).
  uint64_t distance_calls = 0;
  /// Calls whose scan ran to completion.
  uint64_t distance_calls_completed = 0;
  /// Calls cut short by the early-abandon limit.
  uint64_t distance_calls_abandoned = 0;
  /// Outer-loop candidates whose inner scan was started.
  uint64_t candidates_visited = 0;
  /// Candidates discarded because their running nearest-neighbor distance
  /// fell below the best-so-far discord (the outer-loop pruning of HOTSAX /
  /// RRA; always 0 for brute force).
  uint64_t candidates_pruned = 0;
};

/// Folds a finished search's accounting into `registry` under
/// `search.<algo>.*` — the bridge from per-search exact accounting to the
/// process-wide metrics exports. Called once per search (not per call), so
/// the map lookups are off the hot path.
inline void AccumulateSearchMetrics(const DiscordResult& result,
                                    std::string_view algo,
                                    obs::MetricsRegistry& registry) {
  const std::string prefix = "search." + std::string(algo);
  registry.counter(prefix + ".calls.completed")
      .Add(result.distance_calls_completed);
  registry.counter(prefix + ".calls.abandoned")
      .Add(result.distance_calls_abandoned);
  registry.counter(prefix + ".candidates.visited")
      .Add(result.candidates_visited);
  registry.counter(prefix + ".candidates.pruned")
      .Add(result.candidates_pruned);
  registry.counter(prefix + ".discords").Add(result.discords.size());
}

}  // namespace gva

#endif  // GVA_DISCORD_DISCORD_RECORD_H_
