#include "discord/brute_force.h"

#include <algorithm>
#include <numeric>

#include "discord/distance.h"
#include "discord/parallel_search.h"
#include "obs/trace.h"
#include "timeseries/sliding_window.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

uint64_t BruteForceCallCount(size_t m, size_t n) {
  if (n == 0 || m < n) {
    return 0;
  }
  const size_t candidates = NumSlidingWindows(m, n);
  uint64_t total = 0;
  for (size_t p = 0; p < candidates; ++p) {
    // Self-matches are the q with |p - q| < n.
    const size_t lo = p + 1 >= n ? p + 1 - n : 0;
    const size_t hi = std::min(candidates - 1, p + n - 1);
    const size_t self_zone = hi - lo + 1;
    total += candidates - self_zone;
  }
  return total;
}

StatusOr<DiscordResult> FindDiscordsBruteForce(std::span<const double> series,
                                               size_t window, size_t top_k,
                                               size_t num_threads) {
  if (window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  if (series.size() < 2 * window) {
    return Status::InvalidArgument(
        StrFormat("series length %zu too short for window %zu (need >= 2x)",
                  series.size(), window));
  }
  if (top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1");
  }

  const size_t candidates = NumSlidingWindows(series.size(), window);
  SubsequenceDistance dist(series);
  const std::vector<WindowStats> stats = dist.StatsOfAllWindows(window);

  // One full pass computes every candidate's nearest non-self neighbor.
  // Candidates are independent (each scan abandons only against its own
  // running nearest neighbor, never a shared best), so the outer loop
  // parallelizes over disjoint slices of the result arrays and the output
  // is bit-identical for every thread count.
  std::vector<double> nn_dist(candidates,
                              SubsequenceDistance::kInfinity);
  std::vector<size_t> nn_pos(candidates, 0);
  ThreadPool pool(num_threads);
  std::vector<CallTally> chunk_calls(pool.num_threads());
  {
    GVA_OBS_SPAN("search.brute.pass");
    pool.ParallelFor(0, candidates, [&](size_t chunk_begin, size_t chunk_end,
                                        size_t chunk) {
      GVA_OBS_SPAN("search.brute.chunk");
      DistanceScan scan(dist);
      for (size_t p = chunk_begin; p < chunk_end; ++p) {
        scan.SetQuery(p, window, stats[p]);
        double best = SubsequenceDistance::kInfinity;
        size_t best_q = 0;
        for (size_t q = 0; q < candidates; ++q) {
          if (IsSelfMatch(p, q, window)) {
            continue;
          }
          const double d = scan.Distance(q, stats[q], best);
          if (d < best) {
            best = d;
            best_q = q;
          }
        }
        nn_dist[p] = best;
        nn_pos[p] = best_q;
      }
      chunk_calls[chunk] = scan.tally();
    });
  }

  // Greedy top-k selection of non-overlapping discords, best first.
  std::vector<size_t> order(candidates);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return nn_dist[a] > nn_dist[b];
  });

  DiscordResult result;
  for (size_t p : order) {
    if (result.discords.size() >= top_k) {
      break;
    }
    if (nn_dist[p] == SubsequenceDistance::kInfinity) {
      continue;
    }
    bool overlaps = false;
    for (const DiscordRecord& d : result.discords) {
      if (IsSelfMatch(p, d.position, window)) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) {
      continue;
    }
    result.discords.push_back(
        DiscordRecord{p, window, nn_dist[p], nn_pos[p], -2});
  }
  // Every candidate's scan runs to its own conclusion; there is no shared
  // best-so-far, hence nothing is ever outer-loop pruned — which also makes
  // the call split thread-count-invariant here, unlike HOTSAX/RRA.
  SearchTally tally;
  for (const CallTally& calls : chunk_calls) {
    tally.calls += calls;
  }
  tally.visited = candidates;
  tally.WriteTo(&result);
  AccumulateSearchMetrics(result, "brute", obs::GlobalMetrics());
  return result;
}

}  // namespace gva
