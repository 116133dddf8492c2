#include "discord/hotsax.h"

#include <algorithm>
#include <string_view>
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

/// One discord search round over the allowed candidates, parallelized over
/// chunks of the outer ordering. Every candidate's inner scan is a prefix
/// of a fixed visit order (bucket siblings, then the shared shuffle), cut
/// short only by strict comparison against the shared best-so-far, so a
/// candidate that completes its scan always yields the same (distance,
/// neighbor) pair; the cross-chunk arg-max reduction then makes the round
/// winner identical for every thread count. Adds the round's accounting to
/// `tally`. Returns false when no candidate has a finite nearest-neighbor
/// distance.
bool FindBestDiscord(const SubsequenceDistance& dist,
                     const std::vector<WindowStats>& stats, size_t window,
                     const std::vector<size_t>& outer_order,
                     const std::vector<std::vector<size_t>>& buckets,
                     const std::vector<uint32_t>& word_id,
                     const std::vector<size_t>& inner_random,
                     const std::vector<char>& excluded,
                     const std::atomic<bool>* cancel, ThreadPool& pool,
                     SearchTally* tally, DiscordRecord* best) {
  GVA_OBS_SPAN("search.hotsax.round");
  SharedBestDistance shared_best;
  std::vector<BestCandidate> chunk_best(pool.num_threads());
  std::vector<SearchTally> chunk_tally(pool.num_threads());

  pool.ParallelFor(0, outer_order.size(), [&](size_t chunk_begin,
                                              size_t chunk_end,
                                              size_t chunk) {
    GVA_OBS_SPAN("search.hotsax.chunk");
    BestCandidate local;
    SearchTally local_tally;
    DistanceScan scan(dist);
    for (size_t oi = chunk_begin; oi < chunk_end; ++oi) {
      // Cancellation poll, one relaxed load per outer candidate, as in RRA.
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        break;
      }
      const size_t p = outer_order[oi];
      if (excluded[p]) {
        continue;
      }
      ++local_tally.visited;
      scan.SetQuery(p, window, stats[p]);
      double nn = SubsequenceDistance::kInfinity;
      size_t nn_q = 0;
      bool pruned = false;

      auto visit = [&](size_t q) {
        if (IsSelfMatch(p, q, window)) {
          return true;
        }
        const double d = scan.Distance(q, stats[q], nn);
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
      const uint32_t word = word_id[p];
      for (size_t q : buckets[word]) {
        if (q != p && !visit(q)) {
          break;
        }
      }
      // ... then everything else in (pre-shuffled) random order.
      if (!pruned) {
        for (size_t q : inner_random) {
          if (word_id[q] == word) {
            continue;  // already visited through the bucket
          }
          if (!visit(q)) {
            break;
          }
        }
      }

      if (pruned) {
        ++local_tally.pruned;
      } else if (nn != SubsequenceDistance::kInfinity) {
        local.Consider(BestCandidate{nn, p, window, nn_q, -2, true});
        shared_best.RaiseTo(nn);
      }
    }
    local_tally.calls = scan.tally();
    chunk_best[chunk] = local;
    chunk_tally[chunk] = local_tally;
  });

  BestCandidate overall;
  for (const BestCandidate& candidate : chunk_best) {
    overall.Consider(candidate);
  }
  for (const SearchTally& t : chunk_tally) {
    *tally += t;
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

  // Word ids in first-occurrence order, and their buckets: id -> positions
  // in index order. The search compares ids, never the words themselves.
  std::vector<uint32_t> word_id(candidates);
  std::vector<std::vector<size_t>> buckets;
  {
    std::unordered_map<std::string_view, uint32_t> ids;
    ids.reserve(candidates);
    for (size_t i = 0; i < candidates; ++i) {
      const auto [it, inserted] = ids.try_emplace(
          records.words[i], static_cast<uint32_t>(buckets.size()));
      if (inserted) {
        buckets.emplace_back();
      }
      word_id[i] = it->second;
      buckets[it->second].push_back(i);
    }
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
                     return buckets[word_id[a]].size() <
                            buckets[word_id[b]].size();
                   });

  // Shared random inner ordering.
  std::vector<size_t> inner_random(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    inner_random[i] = i;
  }
  rng.Shuffle(inner_random);

  SubsequenceDistance dist(series, options.sax.znorm_epsilon);
  const std::vector<WindowStats> stats = dist.StatsOfAllWindows(window);
  // Plain bytes instead of vector<bool>: chunk threads read it while only
  // the sequential between-round code writes it, and the byte vector keeps
  // those reads free of bit-packing proxies.
  std::vector<char> excluded(candidates, 0);
  ThreadPool pool(options.num_threads);

  DiscordResult result;
  SearchTally tally;
  for (size_t k = 0; k < options.top_k; ++k) {
    DiscordRecord best;
    const bool found = FindBestDiscord(
        dist, stats, window, outer_order, buckets, word_id, inner_random,
        excluded, options.cancel, pool, &tally, &best);
    // A cancelled round may have skipped candidates, so whatever it
    // reported is not trustworthy: the whole search fails as Cancelled.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("hotsax search cancelled");
    }
    if (!found) {
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
  tally.WriteTo(&result);
  AccumulateSearchMetrics(result, "hotsax", obs::GlobalMetrics());
  return result;
}

}  // namespace gva
