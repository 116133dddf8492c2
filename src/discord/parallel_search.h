#ifndef GVA_DISCORD_PARALLEL_SEARCH_H_
#define GVA_DISCORD_PARALLEL_SEARCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "discord/discord_record.h"
#include "discord/distance.h"

namespace gva {

/// A search's accounting: its distance calls plus the outer-loop
/// candidates it visited and pruned. Each chunk of a round keeps its own
/// and the round sums them after the join (one cell per chunk, so the
/// totals are exact and, for a fixed chunk set, independent of completion
/// order).
struct SearchTally {
  CallTally calls;
  uint64_t visited = 0;
  uint64_t pruned = 0;

  SearchTally& operator+=(const SearchTally& other) {
    calls += other.calls;
    visited += other.visited;
    pruned += other.pruned;
    return *this;
  }

  /// Writes the totals into `result`'s accounting fields.
  void WriteTo(DiscordResult* result) const {
    result->distance_calls = calls.calls();
    result->distance_calls_completed = calls.completed;
    result->distance_calls_abandoned = calls.abandoned;
    result->candidates_visited = visited;
    result->candidates_pruned = pruned;
  }
};

/// Monotonically increasing best-so-far discord distance shared by the
/// threads of a parallel discord search. Threads prune a candidate as soon
/// as its running nearest-neighbor distance drops strictly below the shared
/// value. Because every pruning comparison is strict and the shared value
/// never exceeds the round's final maximum, a candidate that ties or wins
/// the round can never be pruned — which is what makes the reduction below
/// thread-count-invariant.
class SharedBestDistance {
 public:
  explicit SharedBestDistance(double initial = -1.0) : value_(initial) {}

  double load() const { return value_.load(std::memory_order_relaxed); }

  /// Atomically raises the shared value to `candidate` if larger.
  void RaiseTo(double candidate) {
    double current = value_.load(std::memory_order_relaxed);
    while (candidate > current) {
      if (value_.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  std::atomic<double> value_;
};

/// Arg-max cell for the deterministic cross-chunk reduction of a search
/// round. `Beats` is a total order — distance descending, then start
/// position ascending, then length ascending — so folding any permutation
/// of per-chunk winners yields the same overall winner regardless of chunk
/// boundaries or completion order.
struct BestCandidate {
  double distance = -1.0;
  size_t position = 0;
  size_t length = 0;
  size_t nn_position = 0;
  int32_t rule = -2;
  bool valid = false;

  bool Beats(const BestCandidate& other) const {
    if (!valid || !other.valid) {
      return valid;
    }
    if (distance != other.distance) {
      return distance > other.distance;
    }
    if (position != other.position) {
      return position < other.position;
    }
    return length < other.length;
  }

  void Consider(const BestCandidate& other) {
    if (other.Beats(*this)) {
      *this = other;
    }
  }
};

}  // namespace gva

#endif  // GVA_DISCORD_PARALLEL_SEARCH_H_
