#ifndef GVA_ENSEMBLE_ENSEMBLE_H_
#define GVA_ENSEMBLE_ENSEMBLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rule_density_detector.h"
#include "sax/sax_transform.h"
#include "timeseries/interval.h"
#include "util/statusor.h"

namespace gva {

/// One discretization configuration of the ensemble: the SAX triple the
/// paper's detectors are sensitive to. Gao & Lin ("Ensemble Grammar
/// Induction For Detecting Anomalies in Time Series") remove this last free
/// parameter by running many configurations and aggregating their
/// rule-density surfaces; this engine is that idea on top of the
/// decomposition pipeline of PRs 1-4.
struct EnsembleConfig {
  size_t window = 100;
  size_t paa_size = 4;
  size_t alphabet_size = 4;

  friend bool operator==(const EnsembleConfig& a, const EnsembleConfig& b) {
    return a.window == b.window && a.paa_size == b.paa_size &&
           a.alphabet_size == b.alphabet_size;
  }
  /// Canonical total order (window, paa, alphabet) — the order in which
  /// curves are aggregated, which is what makes the ensemble score
  /// bit-for-bit invariant under permutations of the config list.
  friend bool operator<(const EnsembleConfig& a, const EnsembleConfig& b) {
    if (a.window != b.window) {
      return a.window < b.window;
    }
    if (a.paa_size != b.paa_size) {
      return a.paa_size < b.paa_size;
    }
    return a.alphabet_size < b.alphabet_size;
  }
};

/// Options for one ensemble run.
struct EnsembleOptions {
  /// The configuration grid. Empty means AutoEnsembleGrid(series length).
  std::vector<EnsembleConfig> configs;
  /// Interval extraction over the aggregated score: threshold fraction and
  /// top-k (max_anomalies); RunEnsemble rejects an invalid one up front.
  DensityAnomalyOptions anomaly;
  /// Concurrency lanes for the per-config outer loop (one task per config,
  /// nested row-parallelism inside the shared z-plane builds); 0 = all
  /// hardware threads. Results are bit-identical for every value.
  size_t num_threads = 1;

  /// The SaxOptions a given grid point expands to: its SAX triple over the
  /// SaxOptions defaults (the grid sweeps only the triple).
  SaxOptions SaxFor(const EnsembleConfig& config) const;
};

/// Per-config outcome. Configs that fail validation against the series
/// (e.g. window longer than the series) are skipped, not fatal: ok == false
/// with the reason in `error`, and the config contributes nothing to the
/// aggregate.
struct EnsembleConfigResult {
  EnsembleConfig config;
  bool ok = false;
  std::string error;
  /// Raw rule-density curve of this config — bit-identical to what
  /// DecomposeSeries(series, SaxFor(config)) produces.
  std::vector<uint32_t> density;
  size_t words = 0;
  size_t rules = 0;
  size_t intervals = 0;
  /// Wall-clock microseconds the config's pipeline took (also accumulated
  /// into the `ensemble.config.us` counter).
  uint64_t wall_us = 0;
  /// Whether the config's SAX z-plane came out of the substrate cache
  /// (true for every config after the canonically-first one per
  /// (window, paa) key).
  bool cache_hit = false;
};

/// One low-score interval of the aggregated ensemble surface.
struct EnsembleAnomaly {
  Interval span;
  /// Smallest aggregated score inside the interval.
  double min_score = 0.0;
  /// Mean aggregated score — the ranking key (lower = more anomalous).
  double mean_score = 0.0;
  /// 0 = most anomalous.
  size_t rank = 0;
};

/// Full ensemble output.
struct EnsembleDetection {
  /// The normalized ensemble anomaly score, one value per series point in
  /// [0, 1]: the mean over successful configs of each config's min-max
  /// normalized rule-density curve. Low = anomalous.
  std::vector<double> score;
  /// Per-config outcomes, in the caller's config order.
  std::vector<EnsembleConfigResult> configs;
  /// Ranked low-score intervals (top-k variable-length extraction).
  std::vector<EnsembleAnomaly> anomalies;
  /// Number of configs that contributed to `score`.
  size_t configs_used = 0;
  /// Substrate-cache accounting (z-plane reuse across configs).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Largest successful window — the edge-exclusion margin used for the
  /// interval extraction.
  size_t max_window = 0;
};

/// Cross-product grid builder.
std::vector<EnsembleConfig> MakeEnsembleGrid(
    const std::vector<size_t>& windows, const std::vector<size_t>& paas,
    const std::vector<size_t>& alphabets);

/// Default sweep when no grid is given: three windows spread around
/// series_length / 15 (half / 1x / double, clamped to the series), PAA
/// sizes {4, 6}, alphabets {3, 4, 5} — 18 configs echoing the robust region
/// of the paper's Figure 10 parameter study.
std::vector<EnsembleConfig> AutoEnsembleGrid(size_t series_length);

/// Min-max normalization of one density curve to [0, 1]. A constant curve
/// (max == min, no structure to rank) maps to all zeros.
std::vector<double> NormalizeDensity(const std::vector<uint32_t>& density);

/// Low-score interval extraction over the aggregated surface: the
/// FindLowRuns rule FindLowDensityIntervals applies to a density curve,
/// applied to the double-valued score. `edge_window` plays the role the
/// window plays there.
std::vector<EnsembleAnomaly> FindLowScoreIntervals(
    const std::vector<double>& score, size_t edge_window,
    const DensityAnomalyOptions& options);

/// Runs the ensemble: every config through discretize -> Sequitur -> rule
/// intervals -> density on the shared thread pool, curves normalized and
/// aggregated in canonical config order, intervals extracted from the
/// aggregate. Fails when `options.anomaly` is invalid, the series is empty,
/// the grid is empty after auto-generation, or no config is runnable
/// against the series.
StatusOr<EnsembleDetection> RunEnsemble(std::span<const double> series,
                                        const EnsembleOptions& options);

}  // namespace gva

#endif  // GVA_ENSEMBLE_ENSEMBLE_H_
