#include "layers.h"

#include <algorithm>
#include <map>
#include <utility>

#include "grammar/rule_intervals.h"
#include "grammar/sequitur.h"
#include "sax/sax_transform.h"
#include "timeseries/rolling_stats.h"

namespace gva::bench {

void LayerCounts::AddSearch(const DiscordResult& result) {
  calls += result.distance_calls;
  calls_abandoned += result.distance_calls_abandoned;
  visited += result.candidates_visited;
  pruned += result.candidates_pruned;
}

namespace {

/// Sequitur, interval mapping and density over already-discretized
/// records: the shared tail of every grammar-based detector.
Status DecomposeTail(std::span<const double> series, size_t window,
                     LayerClock* clock, GrammarDecomposition* out) {
  {
    LayerSpan span(clock, Layer::kGrammar);
    GVA_ASSIGN_OR_RETURN(out->grammar,
                         InferGrammarFromWords(out->records.words));
  }
  LayerSpan span(clock, Layer::kIntervals);
  out->intervals = MapRuleIntervals(out->grammar.grammar, out->records,
                                    window, series.size());
  out->density = RuleDensityCurve(out->intervals, series.size());
  return Status::Ok();
}

StatusOr<GrammarDecomposition> LayeredDecompose(std::span<const double> series,
                                                const SaxOptions& sax,
                                                LayerClock* clock,
                                                LayerCounts* counts) {
  GrammarDecomposition out;
  out.series_length = series.size();
  out.window = sax.window;
  {
    LayerSpan span(clock, Layer::kSax);
    GVA_ASSIGN_OR_RETURN(out.records, Discretize(series, sax));
  }
  GVA_RETURN_IF_ERROR(DecomposeTail(series, sax.window, clock, &out));
  counts->words += out.records.size();
  counts->tokens += out.grammar.tokens.size();
  counts->rules += out.grammar.grammar.size();
  counts->intervals += out.intervals.size();
  return out;
}

}  // namespace

StatusOr<DensityDetection> LayeredDensity(std::span<const double> series,
                                          const SaxOptions& sax,
                                          const DensityAnomalyOptions& options,
                                          LayerClock* clock,
                                          LayerCounts* counts) {
  GVA_RETURN_IF_ERROR(options.Validate());
  DensityDetection result;
  GVA_ASSIGN_OR_RETURN(result.decomposition,
                       LayeredDecompose(series, sax, clock, counts));
  LayerSpan span(clock, Layer::kDetect);
  result.anomalies = FindLowDensityIntervals(result.decomposition.density,
                                             sax.window, options);
  return result;
}

StatusOr<RraDetection> LayeredRra(std::span<const double> series,
                                  const RraOptions& options, LayerClock* clock,
                                  LayerCounts* counts) {
  RraDetection detection;
  GVA_ASSIGN_OR_RETURN(detection.decomposition,
                       LayeredDecompose(series, options.sax, clock, counts));
  {
    LayerSpan span(clock, Layer::kDiscord);
    GVA_ASSIGN_OR_RETURN(
        detection.result,
        FindRraDiscordsInDecomposition(series, detection.decomposition,
                                       options));
  }
  counts->candidates +=
      BuildRraCandidates(detection.decomposition, options).size();
  counts->AddSearch(detection.result);
  return detection;
}

StatusOr<DiscordResult> LayeredHotSax(std::span<const double> series,
                                      const HotSaxOptions& options,
                                      LayerClock* clock, LayerCounts* counts) {
  const Clock::time_point sax_start = Clock::now();
  StatusOr<SaxRecords> records = DiscretizeAllWindows(series, options.sax);
  const double sax_seconds = SecondsSince(sax_start);
  GVA_RETURN_IF_ERROR(records.status());

  const Clock::time_point search_start = Clock::now();
  StatusOr<DiscordResult> result = FindDiscordsHotSax(series, options);
  const double call_seconds = SecondsSince(search_start);
  GVA_RETURN_IF_ERROR(result.status());
  if (clock != nullptr) {
    // The call discretized the series itself before searching: its first
    // sax_seconds are not charged, and the discord span covers the rest.
    const double search_seconds = std::max(0.0, call_seconds - sax_seconds);
    clock->Record(Layer::kSax, sax_start, sax_seconds);
    clock->Record(Layer::kDiscord,
                  search_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         call_seconds - search_seconds)),
                  search_seconds);
  }
  counts->words += records->size();
  counts->candidates += records->size();
  counts->AddSearch(*result);
  return result;
}

StatusOr<LayeredEnsembleResult> LayeredEnsemble(
    std::span<const double> series, const EnsembleOptions& options,
    LayerClock* clock, LayerCounts* counts) {
  std::vector<EnsembleConfig> canonical = options.configs;
  std::stable_sort(canonical.begin(), canonical.end());

  std::map<std::pair<size_t, size_t>, SaxZPlane> planes;
  {
    LayerSpan span(clock, Layer::kSax);
    const RollingStats stats(series);
    for (const EnsembleConfig& config : canonical) {
      const std::pair<size_t, size_t> key{config.window, config.paa_size};
      if (planes.find(key) != planes.end()) {
        ++counts->cache_hits;
        continue;
      }
      GVA_ASSIGN_OR_RETURN(
          SaxZPlane plane,
          ComputeSaxZPlane(series, options.SaxFor(config), &stats));
      counts->zplane_fallback_rows += plane.fallback_rows;
      planes.emplace(key, std::move(plane));
    }
  }

  LayeredEnsembleResult out;
  out.score.assign(series.size(), 0.0);
  size_t max_window = 0;
  for (const EnsembleConfig& config : canonical) {
    const SaxOptions sax = options.SaxFor(config);
    GrammarDecomposition d;
    d.series_length = series.size();
    d.window = sax.window;
    {
      LayerSpan span(clock, Layer::kSax);
      GVA_ASSIGN_OR_RETURN(
          d.records,
          DiscretizeWithZPlane(series, sax,
                               planes.at({config.window, config.paa_size})));
    }
    GVA_RETURN_IF_ERROR(DecomposeTail(series, sax.window, clock, &d));
    counts->words += d.records.size();
    counts->tokens += d.grammar.tokens.size();
    counts->rules += d.grammar.grammar.size();
    counts->intervals += d.intervals.size();
    ++counts->configs;

    LayerSpan span(clock, Layer::kDetect);
    const std::vector<double> normalized = NormalizeDensity(d.density);
    for (size_t p = 0; p < out.score.size(); ++p) {
      out.score[p] += normalized[p];
    }
    max_window = std::max(max_window, config.window);
  }
  LayerSpan span(clock, Layer::kDetect);
  if (canonical.size() > 1) {
    const double inv = 1.0 / static_cast<double>(canonical.size());
    for (double& s : out.score) {
      s *= inv;
    }
  }
  out.anomalies = FindLowScoreIntervals(out.score, max_window, options.anomaly);
  return out;
}

bool SameSearch(const DiscordResult& a, const DiscordResult& b) {
  if (a.discords.size() != b.discords.size() ||
      a.distance_calls != b.distance_calls ||
      a.distance_calls_completed != b.distance_calls_completed ||
      a.distance_calls_abandoned != b.distance_calls_abandoned ||
      a.candidates_visited != b.candidates_visited ||
      a.candidates_pruned != b.candidates_pruned) {
    return false;
  }
  for (size_t i = 0; i < a.discords.size(); ++i) {
    const DiscordRecord& x = a.discords[i];
    const DiscordRecord& y = b.discords[i];
    if (x.position != y.position || x.length != y.length ||
        x.distance != y.distance || x.nn_position != y.nn_position ||
        x.rule != y.rule) {
      return false;
    }
  }
  return true;
}

bool SameDensity(const DensityDetection& a, const DensityDetection& b) {
  if (a.decomposition.records.words != b.decomposition.records.words ||
      a.decomposition.records.offsets != b.decomposition.records.offsets ||
      a.decomposition.density != b.decomposition.density ||
      a.anomalies.size() != b.anomalies.size()) {
    return false;
  }
  for (size_t i = 0; i < a.anomalies.size(); ++i) {
    const DensityAnomaly& x = a.anomalies[i];
    const DensityAnomaly& y = b.anomalies[i];
    if (!(x.span == y.span) || x.min_density != y.min_density ||
        x.mean_density != y.mean_density || x.rank != y.rank) {
      return false;
    }
  }
  return true;
}

}  // namespace gva::bench
