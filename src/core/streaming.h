#ifndef GVA_CORE_STREAMING_H_
#define GVA_CORE_STREAMING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/rule_density_detector.h"
#include "grammar/sequitur.h"
#include "obs/metrics.h"
#include "sax/sax_transform.h"
#include "util/statusor.h"

namespace gva {

/// Options for the streaming rule-density monitor.
struct StreamingOptions {
  /// Discretization parameters; window is the rolling window length.
  SaxOptions sax;
  /// Anomaly extraction parameters applied on each report.
  DensityAnomalyOptions density;
  /// Eviction horizon in samples. 0 keeps the entire stream (reports cover
  /// the full prefix and memory grows with it — the legacy behavior). A
  /// positive horizon bounds retained state: reports always cover a suffix
  /// of between `horizon` and 2x`horizon` samples and everything older is
  /// evicted. Must be 0 or >= sax.window.
  size_t horizon = 0;

  /// Validates the SAX options, the density options, and the horizon.
  Status Validate() const;
};

/// One streaming report: a density detection over the suffix the monitor
/// currently retains. All positions inside `detection` (record offsets,
/// rule intervals, anomaly spans) are relative to `suffix_start`; add it
/// to translate into absolute stream positions.
struct StreamingReport {
  /// Absolute stream index of the first sample the report covers.
  size_t suffix_start = 0;
  /// Number of samples covered: samples_seen() - suffix_start. With a
  /// positive horizon this stays within [horizon, 2*horizon].
  size_t suffix_length = 0;
  /// Bit-for-bit identical to DetectDensityAnomalies() on the same suffix.
  DensityDetection detection;
};

/// Online rule-density anomaly monitoring — the paper's Section 7 points
/// out that both SAX and Sequitur process the input left to right, enabling
/// early anomaly detection on streams; this class realizes that with
/// amortized O(1) work per sample and memory bounded by the horizon.
///
/// Ingestion: each pushed sample advances the monitor's one online SAX
/// discretizer (`OnlineSaxDiscretizer`: O(paa) per completed window via
/// rolling prefix-sum rings, byte-identical words to the batch path), and
/// each completed window's word goes to every live generation that starts
/// at or before the window; a generation's kept words feed its append-only
/// incremental Sequitur. Eviction is generational: with horizon H, a fresh
/// pipeline generation starts at every multiple of H and at most two are
/// live — a word is computed once and appended to both, reports come from
/// the older one, and crossing a horizon boundary retires the oldest
/// generation wholesale (its rules, tokens, and vocabulary all drop at
/// once). That keeps every report a *complete* decomposition of its suffix
/// rather than an approximation over a partially-forgotten grammar.
///
/// Reporting: a report extracts the oldest generation's grammar, maps its
/// rules onto the suffix and builds the density curve with the batch
/// path's RuleDensityCurve, so it costs O(retained suffix + grammar) —
/// bounded by the horizon, never O(stream prefix).
///
/// The equivalence contract (see streaming_differential_test.cc): a report
/// at any moment, under any report cadence, is bit-for-bit identical to
/// running the batch detector on the same suffix — streaming changes *when*
/// work happens, never the result.
class StreamingAnomalyMonitor {
 public:
  /// Validates the options (including `options.density` — see
  /// DensityAnomalyOptions::Validate()).
  static StatusOr<StreamingAnomalyMonitor> Create(
      const StreamingOptions& options);

  /// Feeds one sample. Amortized O(1) (one O(paa) SAX word per sample once
  /// the window is full; grammar upkeep is amortized constant).
  void Push(double value);

  /// Feeds a batch of samples.
  void PushAll(std::span<const double> values);

  /// Samples consumed so far (absolute stream length).
  size_t samples_seen() const { return samples_seen_; }

  /// SAX words kept after numerosity reduction in the suffix a Report()
  /// would cover right now.
  size_t tokens_emitted() const;

  /// Tokens retained across every live generation — the memory-relevant
  /// number; bounded by the horizon (two generations of at most 2x`horizon`
  /// windows), unbounded only when horizon == 0.
  size_t retained_tokens() const;

  /// Absolute stream index where a Report() issued now would start.
  size_t report_suffix_start() const;

  /// Generations retired so far (0 until the stream crosses 2x horizon).
  size_t generations_evicted() const { return generations_evicted_; }

  /// Extracts the current grammar of the oldest live generation, maps its
  /// rules onto the retained suffix, builds the density curve, and returns
  /// the detection. Fails with kFailedPrecondition until one full window
  /// has streamed by; any other error is a real failure.
  StatusOr<StreamingReport> Report();

 private:
  /// One complete pipeline over the windows that start at or after
  /// `start`: numerosity reduction -> vocabulary -> Sequitur.
  struct Generation {
    explicit Generation(size_t start_index) : start(start_index) {}

    size_t start;
    std::vector<std::string> words;
    std::vector<size_t> offsets;  // window starts, relative to `start`
    std::vector<int32_t> tokens;
    std::vector<std::string> vocabulary_list;
    std::unordered_map<std::string, int32_t> vocabulary;
    IncrementalSequitur sequitur;
  };

  explicit StreamingAnomalyMonitor(const StreamingOptions& options);

  /// Appends `word_scratch_`, the word of the window at `offset` relative
  /// to the generation's start, unless numerosity reduction drops it.
  void Feed(Generation& generation, size_t offset);

  StreamingOptions options_;
  NormalAlphabet alphabet_;
  // Words do not depend on where a generation starts (each equals
  // SaxWordForWindow on its window), so one discretizer serves them all.
  OnlineSaxDiscretizer discretizer_;
  size_t samples_seen_ = 0;
  size_t generations_evicted_ = 0;
  // Oldest generation first; at most two are live with a positive horizon.
  std::vector<Generation> generations_;
  std::string word_scratch_;
  // Registry-owned counters (stable addresses), so the monitor stays
  // movable while hot paths skip the registry lock.
  obs::Counter* samples_counter_;
  obs::Counter* tokens_counter_;
  obs::Counter* evictions_counter_;
  obs::Counter* reports_counter_;
  // Live health gauges for telemetry scrapes: current retained-token count
  // and live generation count, refreshed on every Push so /metrics sees
  // the monitor's memory state move mid-stream.
  obs::Gauge* retained_gauge_;
  obs::Gauge* generations_gauge_;
};

}  // namespace gva

#endif  // GVA_CORE_STREAMING_H_
