#include "discord/hotsax.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "discord/distance.h"
#include "discord/parallel_search.h"
#include "obs/trace.h"
#include "timeseries/sliding_window.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

namespace {

/// Per-round progress accounting, merged from chunk-local tallies after the
/// round joins (one cell per chunk, so totals are exact and, per chunk set,
/// independent of completion order).
struct RoundProgress {
  uint64_t visited = 0;
  uint64_t pruned = 0;
};

/// One discord search round over the allowed candidates, parallelized over
/// chunks of the outer ordering. Every candidate's inner scan is a prefix
/// of a fixed visit order (bucket siblings, then the shared shuffle), cut
/// short only by strict comparison against the shared best-so-far, so a
/// candidate that completes its scan always yields the same (distance,
/// neighbor) pair; the cross-chunk arg-max reduction then makes the round
/// winner identical for every thread count. Returns false when no candidate
/// has a finite nearest-neighbor distance.
bool FindBestDiscord(const SubsequenceDistance& dist, size_t window,
                     const std::vector<size_t>& outer_order,
                     const std::unordered_map<std::string,
                                              std::vector<size_t>>& buckets,
                     const std::vector<const std::string*>& word_of,
                     const std::vector<size_t>& inner_random,
                     const std::vector<char>& excluded, ThreadPool& pool,
                     obs::BestSoFarLog& trajectory, RoundProgress* progress,
                     DiscordRecord* best) {
  GVA_OBS_SPAN("search.hotsax.round");
  SharedBestDistance shared_best;
  std::vector<BestCandidate> chunk_best(pool.num_threads());
  std::vector<RoundProgress> chunk_progress(pool.num_threads());

  pool.ParallelFor(0, outer_order.size(), [&](size_t chunk_begin,
                                              size_t chunk_end,
                                              size_t chunk) {
    GVA_OBS_SPAN("search.hotsax.chunk");
    BestCandidate local;
    RoundProgress tally;
    for (size_t oi = chunk_begin; oi < chunk_end; ++oi) {
      const size_t p = outer_order[oi];
      if (excluded[p]) {
        continue;
      }
      ++tally.visited;
      double nn = SubsequenceDistance::kInfinity;
      size_t nn_q = 0;
      bool pruned = false;

      auto visit = [&](size_t q) {
        if (IsSelfMatch(p, q, window)) {
          return true;
        }
        const double d = dist.Distance(p, q, window, nn);
        if (d < nn) {
          nn = d;
          nn_q = q;
          if (nn < shared_best.load()) {
            pruned = true;  // p cannot beat the best-so-far discord
            return false;
          }
        }
        return true;
      };

      // Heuristic inner ordering: same-word positions first...
      const std::vector<size_t>& same_word = buckets.at(*word_of[p]);
      for (size_t q : same_word) {
        if (q != p && !visit(q)) {
          break;
        }
      }
      // ... then everything else in (pre-shuffled) random order.
      if (!pruned) {
        for (size_t q : inner_random) {
          if (*word_of[q] == *word_of[p]) {
            continue;  // already visited through the bucket
          }
          if (!visit(q)) {
            break;
          }
        }
      }

      if (pruned) {
        ++tally.pruned;
      } else if (nn != SubsequenceDistance::kInfinity) {
        local.Consider(BestCandidate{nn, p, window, nn_q, -2, true});
        if (shared_best.RaiseTo(nn)) {
          trajectory.Record(dist.calls(), nn);
        }
      }
    }
    chunk_best[chunk] = local;
    chunk_progress[chunk] = tally;
  });

  BestCandidate overall;
  for (const BestCandidate& candidate : chunk_best) {
    overall.Consider(candidate);
  }
  for (const RoundProgress& tally : chunk_progress) {
    progress->visited += tally.visited;
    progress->pruned += tally.pruned;
  }
  if (!overall.valid) {
    return false;
  }
  *best = DiscordRecord{overall.position, window, overall.distance,
                        overall.nn_position, -2};
  return true;
}

}  // namespace

StatusOr<DiscordResult> FindDiscordsHotSax(std::span<const double> series,
                                           const HotSaxOptions& options) {
  const size_t window = options.sax.window;
  if (series.size() < 2 * window) {
    return Status::InvalidArgument(
        StrFormat("series length %zu too short for window %zu", series.size(),
                  window));
  }
  if (options.top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1");
  }

  // Discretize every window (no numerosity reduction).
  StatusOr<SaxRecords> discretized = [&] {
    GVA_OBS_SPAN("search.hotsax.discretize");
    return DiscretizeAllWindows(series, options.sax);
  }();
  GVA_ASSIGN_OR_RETURN(SaxRecords records, std::move(discretized));
  const size_t candidates = records.size();

  // Word buckets: word -> positions, in index order.
  std::unordered_map<std::string, std::vector<size_t>> buckets;
  buckets.reserve(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    buckets[records.words[i]].push_back(i);
  }
  std::vector<const std::string*> word_of(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    word_of[i] = &records.words[i];
  }

  Rng rng(options.seed);

  // Outer ordering: ascending bucket frequency; positions within the same
  // frequency tier are shuffled.
  std::vector<size_t> outer_order(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    outer_order[i] = i;
  }
  rng.Shuffle(outer_order);
  std::stable_sort(outer_order.begin(), outer_order.end(),
                   [&](size_t a, size_t b) {
                     return buckets.at(*word_of[a]).size() <
                            buckets.at(*word_of[b]).size();
                   });

  // Shared random inner ordering.
  std::vector<size_t> inner_random(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    inner_random[i] = i;
  }
  rng.Shuffle(inner_random);

  SubsequenceDistance dist(series);
  // Plain bytes instead of vector<bool>: chunk threads read it while only
  // the sequential between-round code writes it, and the byte vector keeps
  // those reads free of bit-packing proxies.
  std::vector<char> excluded(candidates, 0);
  ThreadPool pool(options.num_threads);

  DiscordResult result;
  obs::BestSoFarLog trajectory;
  RoundProgress progress;
  for (size_t k = 0; k < options.top_k; ++k) {
    DiscordRecord best;
    if (!FindBestDiscord(dist, window, outer_order, buckets, word_of,
                         inner_random, excluded, pool, trajectory, &progress,
                         &best)) {
      break;
    }
    result.discords.push_back(best);
    // Exclude the discord's self-match zone from future outer loops.
    for (size_t p = 0; p < candidates; ++p) {
      if (IsSelfMatch(p, best.position, window)) {
        excluded[p] = 1;
      }
    }
  }
  result.distance_calls = dist.calls();
  result.distance_calls_completed = dist.calls_completed();
  result.distance_calls_abandoned = dist.calls_abandoned();
  result.candidates_visited = progress.visited;
  result.candidates_pruned = progress.pruned;
  result.best_trajectory = trajectory.TakeSorted();
  AccumulateSearchMetrics(result, "hotsax", obs::GlobalMetrics());
  return result;
}

}  // namespace gva
