#include "core/rra.h"

#include <algorithm>
#include <unordered_map>

#include "discord/distance.h"
#include "discord/parallel_search.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gva {

std::vector<RuleInterval> BuildRraCandidates(
    const GrammarDecomposition& decomposition, const RraOptions& options) {
  std::vector<RuleInterval> candidates;
  candidates.reserve(decomposition.intervals.size() + 8);
  const size_t m = decomposition.series_length;
  for (const RuleInterval& ri : decomposition.intervals) {
    if (ri.span.length() >= 2 && ri.span.end <= m) {
      candidates.push_back(ri);
    }
  }
  const size_t min_gap = std::max<size_t>(
      2, decomposition.window / std::max<size_t>(1, options.sax.paa_size));
  for (const RuleInterval& gap :
       ZeroCoverageIntervals(decomposition.density, min_gap)) {
    if (gap.span.start != 0 && gap.span.end < m) {
      candidates.push_back(gap);
    }
  }
  return candidates;
}

namespace {

struct SearchState {
  const std::vector<RuleInterval>* candidates = nullptr;
  std::vector<size_t> outer_order;
  std::vector<size_t> inner_random;
  // rule id -> candidate indices, for the "same rule first" inner phase.
  std::unordered_map<int32_t, std::vector<size_t>> by_rule;
  // Every series position, pre-shuffled: the exhaustive inner tail of
  // RRAx (empty for RRA~, which never reads it). The interval starts only
  // quantize the alignment; a candidate that survives them is verified
  // against every sliding-window subsequence (with early abandoning), which
  // keeps the reported discord exact.
  std::vector<size_t> all_positions_random;
};

SearchState BuildOrders(const std::vector<RuleInterval>& candidates,
                        size_t series_length, uint64_t seed, bool exact_nn) {
  SearchState state;
  state.candidates = &candidates;
  state.outer_order.resize(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    state.outer_order[i] = i;
  }
  Rng rng(seed);
  rng.Shuffle(state.outer_order);
  // Ascending rule frequency: gaps (frequency 0) first — the most likely
  // anomalies are visited early, raising best_so_far quickly.
  std::stable_sort(state.outer_order.begin(), state.outer_order.end(),
                   [&](size_t a, size_t b) {
                     return candidates[a].rule_frequency <
                            candidates[b].rule_frequency;
                   });
  state.inner_random = state.outer_order;
  rng.Shuffle(state.inner_random);
  for (size_t i = 0; i < candidates.size(); ++i) {
    state.by_rule[candidates[i].rule].push_back(i);
  }
  // The last draws from `rng`, so skipping them for RRA~ leaves every
  // other visit order as it is.
  if (!exact_nn) {
    return state;
  }
  state.all_positions_random.resize(series_length);
  for (size_t i = 0; i < series_length; ++i) {
    state.all_positions_random[i] = i;
  }
  rng.Shuffle(state.all_positions_random);
  return state;
}

/// Cross-round memo of nearest-neighbor distances: only *completed* scans
/// are recorded, so every entry is the candidate's true nearest-neighbor
/// distance. Later top-k rounds reuse exact entries without spending
/// distance calls. Partial (pruned) scans are deliberately not memoized:
/// where a scan gets cut off depends on cross-thread pruning timing, so
/// caching partial bounds would leak thread-count-dependent state into
/// later rounds and break the bit-identical-results guarantee.
struct NnCache {
  std::vector<double> nn;      // true nearest-neighbor distance when exact
  std::vector<char> exact;     // entry is populated
  std::vector<size_t> nn_pos;  // neighbor achieving `nn`
};

/// A completed candidate scan, recorded thread-locally during a round and
/// merged into the NnCache afterwards. Each candidate is owned by exactly
/// one chunk, so the merge never sees two updates for the same index.
struct CacheUpdate {
  size_t ci;
  double nn;
  size_t nn_pos;
};

/// One discord-search round (Algorithm 1), parallelized over chunks of the
/// outer ordering. Adds the round's accounting to `tally`. Returns false
/// when no remaining candidate has a finite nearest-neighbor distance.
///
/// Determinism: a candidate scan starts from scratch (no partial bounds),
/// follows fixed visit orders, and is cut short only by strict comparison
/// against the shared best-so-far — so a completed scan always produces the
/// same (distance, neighbor) pair, a tying-or-winning candidate can never
/// be pruned, and the arg-max reduction with the BestCandidate total order
/// yields the same round winner for every thread count.
bool FindBestDiscord(const SubsequenceDistance& dist, const SearchState& state,
                     const std::vector<char>& excluded, bool exact_nn,
                     size_t refine_delta,
                     const std::atomic<bool>* cancel, ThreadPool& pool,
                     NnCache& cache, SearchTally* tally, DiscordRecord* best) {
  GVA_OBS_SPAN("search.rra.round");
  const std::vector<RuleInterval>& candidates = *state.candidates;
  const size_t m = dist.series_length();

  SharedBestDistance shared_best;

  // Exact entries from earlier rounds need no rescan: fold them into the
  // reduction up front. Their maximum also seeds the shared pruning
  // threshold before any distance call is spent.
  BestCandidate overall;
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (excluded[ci] || !cache.exact[ci] ||
        cache.nn[ci] == SubsequenceDistance::kInfinity) {
      continue;
    }
    overall.Consider(BestCandidate{cache.nn[ci], candidates[ci].span.start,
                                   candidates[ci].span.length(),
                                   cache.nn_pos[ci], candidates[ci].rule,
                                   true});
  }
  if (overall.valid) {
    shared_best.RaiseTo(overall.distance);
  }

  std::vector<BestCandidate> chunk_best(pool.num_threads());
  std::vector<std::vector<CacheUpdate>> chunk_updates(pool.num_threads());
  std::vector<SearchTally> chunk_tally(pool.num_threads());

  pool.ParallelFor(0, state.outer_order.size(), [&](size_t chunk_begin,
                                                    size_t chunk_end,
                                                    size_t chunk) {
    GVA_OBS_SPAN("search.rra.chunk");
    BestCandidate local;
    SearchTally local_tally;
    DistanceScan scan(dist);
    std::vector<CacheUpdate>& updates = chunk_updates[chunk];
    for (size_t oi = chunk_begin; oi < chunk_end; ++oi) {
      // Cancellation poll, one relaxed load per outer candidate: a
      // cancelled job must free its slot mid-search, not after the round
      // drains (a single candidate's inner scan is the latency bound).
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        break;
      }
      const size_t ci = state.outer_order[oi];
      if (excluded[ci] || cache.exact[ci]) {
        continue;
      }
      ++local_tally.visited;
      const RuleInterval& cand = candidates[ci];
      const size_t p = cand.span.start;
      const size_t len = cand.span.length();
      const double norm = static_cast<double>(len);  // paper Eq. (1)
      scan.SetQuery(p, len, dist.StatsOf(p, len));

      double nn = SubsequenceDistance::kInfinity;  // normalized units
      size_t nn_q = 0;
      bool pruned = false;

      auto visit_position = [&](size_t q) {
        if (q + len > m) {
          return true;  // neighbor window does not fit
        }
        const size_t gap = p > q ? p - q : q - p;
        if (gap < len) {
          return true;  // self match (|p0 - q0| < Length(p))
        }
        const double limit_raw =
            nn == SubsequenceDistance::kInfinity ? nn : nn * norm;
        const double raw = scan.Distance(q, dist.StatsOf(q, len), limit_raw);
        const double d = raw / norm;
        if (d < nn) {
          nn = d;
          nn_q = q;
          if (nn < shared_best.load()) {
            pruned = true;  // candidate cannot beat the best so far
            return false;
          }
        }
        return true;
      };
      auto visit = [&](size_t qi) {
        return visit_position(candidates[qi].span.start);
      };
      // Local alignment refinement around the current nearest neighbor.
      // Interval starts quantize the alignment space (numerosity reduction
      // keeps roughly one start per PAA segment), so an aligned neighbor is
      // usually a few samples off its true optimum; probing around it costs
      // a handful of calls and prunes candidates that only look anomalous
      // because of alignment noise.
      auto refine = [&]() {
        if (pruned || nn == SubsequenceDistance::kInfinity) {
          return;
        }
        const size_t center = nn_q;
        for (size_t off = 1; off <= refine_delta && !pruned; ++off) {
          if (center >= off && !visit_position(center - off)) {
            break;
          }
          if (!pruned && !visit_position(center + off)) {
            break;
          }
        }
      };

      // Inner phase 1: occurrences of the same rule — highly similar by
      // construction, most likely to abandon the candidate early — then
      // refine the alignment around the best of them.
      auto rule_it = state.by_rule.find(cand.rule);
      if (rule_it != state.by_rule.end() && cand.rule >= 0) {
        for (size_t qi : rule_it->second) {
          if (qi != ci && !visit(qi)) {
            break;
          }
        }
        if (exact_nn) {
          refine();
        }
      }
      // Inner phase 2: the other rule intervals, random order, followed by
      // another refinement pass if the nearest neighbor moved.
      if (!pruned) {
        const size_t nn_before = nn_q;
        for (size_t qi : state.inner_random) {
          if (qi == ci ||
              (cand.rule >= 0 && candidates[qi].rule == cand.rule)) {
            continue;
          }
          if (!visit(qi)) {
            break;
          }
        }
        if (exact_nn && !pruned && nn_q != nn_before) {
          refine();
        }
      }
      // Inner phase 3: every remaining sliding-window position, random
      // order. A candidate that is still promising here is verified
      // exhaustively so the reported discord distance is its true
      // nearest-non-self-match distance. Early abandoning keeps this phase
      // cheap: one neighbor below best_so_far prunes the candidate.
      if (exact_nn && !pruned) {
        for (size_t q : state.all_positions_random) {
          if (!visit_position(q)) {
            break;
          }
        }
      }

      // A completed scan established the candidate's true nearest-neighbor
      // distance; queue it for the post-round cache merge. Pruned scans
      // learned nothing reusable (see NnCache).
      if (!pruned) {
        updates.push_back(CacheUpdate{ci, nn, nn_q});
        if (nn != SubsequenceDistance::kInfinity) {
          local.Consider(BestCandidate{nn, p, len, nn_q, cand.rule, true});
          shared_best.RaiseTo(nn);
        }
      } else {
        ++local_tally.pruned;
      }
    }
    local_tally.calls = scan.tally();
    chunk_best[chunk] = local;
    chunk_tally[chunk] = local_tally;
  });

  // Post-round merge: publish what the chunks learned. Each candidate index
  // appears in at most one update list, so the merged cache state does not
  // depend on the thread count or merge order.
  for (const std::vector<CacheUpdate>& updates : chunk_updates) {
    for (const CacheUpdate& update : updates) {
      cache.nn[update.ci] = update.nn;
      cache.nn_pos[update.ci] = update.nn_pos;
      cache.exact[update.ci] = 1;
    }
  }

  for (const BestCandidate& candidate : chunk_best) {
    overall.Consider(candidate);
  }
  for (const SearchTally& t : chunk_tally) {
    *tally += t;
  }
  if (!overall.valid) {
    return false;
  }
  *best = DiscordRecord{overall.position, overall.length, overall.distance,
                        overall.nn_position, overall.rule};
  return true;
}

}  // namespace

StatusOr<DiscordResult> FindRraDiscordsInDecomposition(
    std::span<const double> series, const GrammarDecomposition& decomposition,
    const RraOptions& options) {
  if (options.top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1");
  }
  if (series.size() != decomposition.series_length) {
    return Status::InvalidArgument(
        "series/decomposition length mismatch");
  }
  std::vector<RuleInterval> candidates =
      BuildRraCandidates(decomposition, options);
  DiscordResult result;
  if (candidates.empty()) {
    return result;
  }
  SearchState state = BuildOrders(candidates, series.size(), options.seed,
                                  options.exact_nearest_neighbor);
  SubsequenceDistance dist(series, options.sax.znorm_epsilon);
  std::vector<char> excluded(candidates.size(), 0);
  ThreadPool pool(options.num_threads);
  NnCache cache;
  cache.nn.assign(candidates.size(), SubsequenceDistance::kInfinity);
  cache.exact.assign(candidates.size(), 0);
  cache.nn_pos.assign(candidates.size(), 0);

  SearchTally tally;
  for (size_t k = 0; k < options.top_k; ++k) {
    DiscordRecord best;
    // Alignment-refinement radius: half a PAA segment on each side covers
    // the quantization introduced by numerosity reduction.
    const size_t refine_delta = std::max<size_t>(
        2, options.sax.window / std::max<size_t>(1, 2 * options.sax.paa_size));
    const bool found = FindBestDiscord(
        dist, state, excluded, options.exact_nearest_neighbor, refine_delta,
        options.cancel, pool, cache, &tally, &best);
    // A cancelled round may have skipped candidates, so whatever it
    // reported is not trustworthy: the whole search fails as Cancelled.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("rra search cancelled");
    }
    if (!found) {
      break;
    }
    result.discords.push_back(best);
    // Exclude candidates overlapping the discovered discord.
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].span.Overlaps(best.span())) {
        excluded[i] = 1;
      }
    }
  }
  tally.WriteTo(&result);
  AccumulateSearchMetrics(result, "rra", obs::GlobalMetrics());
  return result;
}

StatusOr<RraDetection> FindRraDiscords(std::span<const double> series,
                                       const RraOptions& options) {
  RraDetection detection;
  GVA_ASSIGN_OR_RETURN(detection.decomposition,
                       DecomposeSeries(series, options.sax));
  GVA_ASSIGN_OR_RETURN(
      detection.result,
      FindRraDiscordsInDecomposition(series, detection.decomposition,
                                     options));
  return detection;
}

std::vector<double> IntervalNnDistances(std::span<const double> series,
                                        const std::vector<RuleInterval>& all,
                                        double znorm_epsilon) {
  SubsequenceDistance dist(series, znorm_epsilon);
  DistanceScan scan(dist);
  const size_t m = series.size();
  std::vector<double> result(all.size(), SubsequenceDistance::kInfinity);
  for (size_t i = 0; i < all.size(); ++i) {
    const size_t p = all[i].span.start;
    const size_t len = all[i].span.length();
    if (len < 2 || p + len > m) {
      continue;
    }
    const double norm = static_cast<double>(len);
    scan.SetQuery(p, len, dist.StatsOf(p, len));
    double nn = SubsequenceDistance::kInfinity;
    for (size_t j = 0; j < all.size(); ++j) {
      if (j == i) {
        continue;
      }
      const size_t q = all[j].span.start;
      if (q + len > m) {
        continue;
      }
      const size_t gap = p > q ? p - q : q - p;
      if (gap < len) {
        continue;
      }
      const double limit_raw =
          nn == SubsequenceDistance::kInfinity ? nn : nn * norm;
      const double d =
          scan.Distance(q, dist.StatsOf(q, len), limit_raw) / norm;
      if (d < nn) {
        nn = d;
      }
    }
    result[i] = nn;
  }
  return result;
}

}  // namespace gva
