#ifndef GVA_BENCH_PIPELINE_BENCH_LAYERS_H_
#define GVA_BENCH_PIPELINE_BENCH_LAYERS_H_

// Layer-by-layer rebuilds of the library's detectors out of their public
// stage functions (Discretize -> InferGrammarFromWords -> MapRuleIntervals
// -> RuleDensityCurve -> FindLowDensityIntervals / discord search). Each
// returns exactly what the one-call entry point returns — the workloads
// CHECK that bit for bit — and charges every stage call to its layer on the
// given LayerClock. That is how the traced run splits end-to-end time by
// layer from outside the library.

#include <cstddef>
#include <span>
#include <vector>

#include "bench_core.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "discord/hotsax.h"
#include "ensemble/ensemble.h"
#include "util/statusor.h"

namespace gva::bench {

/// Work counts of one layered call, for the per-layer count metrics.
struct LayerCounts {
  size_t words = 0;      // SAX words produced (after numerosity reduction)
  size_t tokens = 0;     // tokens fed to Sequitur
  size_t rules = 0;      // grammar rules, R0 included
  size_t intervals = 0;  // rule intervals mapped onto the series
  size_t candidates = 0;  // discord candidates (RRA intervals, HOTSAX windows)
  uint64_t calls = 0;
  uint64_t calls_abandoned = 0;
  uint64_t visited = 0;
  uint64_t pruned = 0;
  size_t configs = 0;
  size_t cache_hits = 0;
  size_t zplane_fallback_rows = 0;

  void AddSearch(const DiscordResult& result);
};

/// DetectDensityAnomalies, stage by stage.
StatusOr<DensityDetection> LayeredDensity(std::span<const double> series,
                                          const SaxOptions& sax,
                                          const DensityAnomalyOptions& options,
                                          LayerClock* clock,
                                          LayerCounts* counts);

/// FindRraDiscords, stage by stage. The search (with its candidate
/// assembly) is one call into the discord layer.
StatusOr<RraDetection> LayeredRra(std::span<const double> series,
                                  const RraOptions& options, LayerClock* clock,
                                  LayerCounts* counts);

/// FindDiscordsHotSax. HOTSAX discretizes inside its one public call, so
/// the SAX share is timed by a separate DiscretizeAllWindows call over the
/// same series and the search share is the call's time minus that: its
/// span covers the tail of the call, after the time the SAX call took.
StatusOr<DiscordResult> LayeredHotSax(std::span<const double> series,
                                      const HotSaxOptions& options,
                                      LayerClock* clock, LayerCounts* counts);

/// What RunEnsemble returns that the serverd auto jobs compare.
struct LayeredEnsembleResult {
  std::vector<double> score;
  std::vector<EnsembleAnomaly> anomalies;
};

/// RunEnsemble with shared substrate, single-threaded, stage by stage:
/// RollingStats and one z-plane per (window, paa), then per config
/// DiscretizeWithZPlane -> Sequitur -> intervals -> density, then the
/// canonical-order aggregation and FindLowScoreIntervals. Every config in
/// `options.configs` must be runnable against the series.
StatusOr<LayeredEnsembleResult> LayeredEnsemble(
    std::span<const double> series, const EnsembleOptions& options,
    LayerClock* clock, LayerCounts* counts);

/// Bit-for-bit comparisons against the one-call entry points.
bool SameSearch(const DiscordResult& a, const DiscordResult& b);
bool SameDensity(const DensityDetection& a, const DensityDetection& b);

}  // namespace gva::bench

#endif  // GVA_BENCH_PIPELINE_BENCH_LAYERS_H_
