#ifndef GVA_DISCORD_HOTSAX_H_
#define GVA_DISCORD_HOTSAX_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "discord/discord_record.h"
#include "sax/sax_transform.h"
#include "util/statusor.h"

namespace gva {

/// Parameters for the HOTSAX discord search (Keogh, Lin & Fu, ICDM'05).
struct HotSaxOptions {
  /// Discretization parameters. The numerosity field is ignored: HOTSAX
  /// keeps one SAX word per window position.
  SaxOptions sax;
  /// How many (non-overlapping) discords to report.
  size_t top_k = 1;
  /// Seed for the randomized portions of the outer/inner orderings.
  uint64_t seed = 0x5eedu;
  /// Concurrency lanes for the outer candidate loop; 0 means all hardware
  /// threads. Reported discords are bit-identical for every value; only
  /// the distance-call count varies (pruning happens at different points).
  size_t num_threads = 1;
  /// Optional cooperative-cancellation token (owned by the caller, e.g.
  /// the server's JobRunner — DESIGN.md §13), polled exactly as
  /// RraOptions::cancel is: once per outer candidate and between top-k
  /// rounds. Once it reads true the search returns Status::Cancelled
  /// instead of a result. Null (the default) never cancels.
  const std::atomic<bool>* cancel = nullptr;
};

/// HOTSAX fixed-length discord discovery — the paper's state-of-the-art
/// baseline. Every window is discretized to a SAX word; the outer loop
/// visits candidates in ascending word-bucket frequency (rare words first),
/// the inner loop visits same-word positions first and the rest in random
/// order, and the search early-abandons against the best-so-far discord
/// distance. Exact: returns the same discord as brute force, in far fewer
/// distance calls.
StatusOr<DiscordResult> FindDiscordsHotSax(std::span<const double> series,
                                           const HotSaxOptions& options);

}  // namespace gva

#endif  // GVA_DISCORD_HOTSAX_H_
