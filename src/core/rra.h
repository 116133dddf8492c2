#ifndef GVA_CORE_RRA_H_
#define GVA_CORE_RRA_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "discord/discord_record.h"
#include "timeseries/znorm.h"
#include "util/statusor.h"

namespace gva {

/// Options for the RRA (Rare Rule Anomaly) exact discord search
/// (paper Section 4.2, Algorithm 1). The objective is fixed: the
/// length-normalized Euclidean distance of paper Eq. (1), over rule
/// intervals plus the zero-coverage gaps of the density curve (see
/// BuildRraCandidates).
struct RraOptions {
  /// Discretization parameters; the window is only a "seed" size — reported
  /// discords may be shorter or longer.
  SaxOptions sax;
  /// How many (non-overlapping) variable-length discords to report.
  size_t top_k = 1;
  /// Seed for the randomized tail of the inner/outer orderings.
  uint64_t seed = 0x5eedu;
  /// When true (default), candidates that survive the interval-aligned
  /// inner phases are verified against every sliding-window position (with
  /// early abandoning), so the reported discord distance is exact. When
  /// false the inner loop stops at the rule-interval starts — the
  /// approximate behaviour of the original GrammarViz RRA, cheaper but
  /// sensitive to alignment quantization.
  bool exact_nearest_neighbor = true;
  /// Concurrency lanes for the outer candidate loop of each search round;
  /// 0 means all hardware threads. Reported discords are bit-identical for
  /// every value (see DESIGN.md, "Concurrency model"); only the
  /// distance-call count varies, because cross-thread pruning cuts losing
  /// scans at different points.
  size_t num_threads = 1;
  /// Optional cooperative-cancellation token (owned by the caller, e.g.
  /// the server's JobRunner — DESIGN.md §13). The search polls it between
  /// outer candidates and between top-k rounds; once it reads true the
  /// search returns Status::Cancelled promptly instead of a result. Null
  /// (the default) compiles to the exact pre-existing behaviour — the
  /// flag is never set mid-run in deterministic contexts, so the
  /// bit-identical-results contract is unaffected.
  const std::atomic<bool>* cancel = nullptr;
};

/// Full RRA output: the grammar decomposition plus the ranked discords and
/// the distance-call count.
struct RraDetection {
  GrammarDecomposition decomposition;
  DiscordResult result;
};

/// Runs the complete RRA pipeline: decompose the series (SAX + Sequitur +
/// interval mapping), then search the rule intervals for the subsequences
/// with the largest nearest-non-self-match distances. The outer loop visits
/// intervals in ascending rule-use frequency (gaps first), the inner loop
/// visits same-rule siblings first and the rest in random order, with
/// HOTSAX-style early abandoning.
StatusOr<RraDetection> FindRraDiscords(std::span<const double> series,
                                       const RraOptions& options);

/// The candidate-interval assembly step of the RRA search: rule intervals
/// (length >= 2, in bounds) plus the zero-coverage gaps of the density
/// curve. Gaps have frequency 0, so the search visits them first; they are
/// how anomalies that never made it into a rule are found. A gap shorter
/// than max(2, window / paa_size) — one PAA segment — is sub-symbol noise
/// and is skipped, and so is a gap touching the series boundary: the curve
/// ramps to zero at the edges because fewer windows cover them. This is
/// exactly the candidate set FindRraDiscordsInDecomposition searches,
/// exposed so differential tests can compare the search result against an
/// exhaustive scan over the same candidates.
std::vector<RuleInterval> BuildRraCandidates(
    const GrammarDecomposition& decomposition, const RraOptions& options);

/// The search step alone, over an existing decomposition. Used by the
/// parameter-grid experiment (Figure 10) where both detectors share one
/// decomposition per parameter combination.
StatusOr<DiscordResult> FindRraDiscordsInDecomposition(
    std::span<const double> series, const GrammarDecomposition& decomposition,
    const RraOptions& options);

/// For every rule interval, its length-normalized distance to the nearest
/// non-self match among the other intervals — the bottom panels of the
/// paper's Figures 2 and 3. Exhaustive (no pruning); intended for plots and
/// diagnostics, not for the search itself. `znorm_epsilon` must match the
/// epsilon of the RRA run whose intervals are being ranked (it defaults to
/// the library-wide flat-window threshold, the same default as
/// SaxOptions::znorm_epsilon); with a mismatched epsilon the ranking can
/// disagree with the search on near-flat windows.
std::vector<double> IntervalNnDistances(std::span<const double> series,
                                        const std::vector<RuleInterval>& all,
                                        double znorm_epsilon =
                                            kDefaultZNormEpsilon);

}  // namespace gva

#endif  // GVA_CORE_RRA_H_
