#include "ensemble/ensemble.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <utility>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "timeseries/rolling_stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

namespace {

/// Substrate-cache key: the alphabet-independent part of a config. Two
/// configs with the same key share one SaxZPlane.
using PlaneKey = std::pair<size_t, size_t>;  // (window, paa_size)

PlaneKey KeyOf(const EnsembleConfig& config) {
  return {config.window, config.paa_size};
}

// Observability only: every read of this clock feeds a per-config timing
// metric, never a decision, so the monotonic-clock ban is waived at the
// single alias all the reads go through.
using MonotonicClock =
    std::chrono::steady_clock;  // gva-lint: allow(determinism-rng)

uint64_t ElapsedMicros(MonotonicClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          MonotonicClock::now() - start)
          .count());
}

}  // namespace

SaxOptions EnsembleOptions::SaxFor(const EnsembleConfig& config) const {
  SaxOptions sax;
  sax.window = config.window;
  sax.paa_size = config.paa_size;
  sax.alphabet_size = config.alphabet_size;
  return sax;
}

std::vector<EnsembleConfig> MakeEnsembleGrid(
    const std::vector<size_t>& windows, const std::vector<size_t>& paas,
    const std::vector<size_t>& alphabets) {
  std::vector<EnsembleConfig> grid;
  grid.reserve(windows.size() * paas.size() * alphabets.size());
  for (size_t w : windows) {
    for (size_t p : paas) {
      for (size_t a : alphabets) {
        grid.push_back(EnsembleConfig{w, p, a});
      }
    }
  }
  return grid;
}

std::vector<EnsembleConfig> AutoEnsembleGrid(size_t series_length) {
  if (series_length == 0) {
    return {};
  }
  const size_t base = std::max<size_t>(16, series_length / 15);
  std::vector<size_t> windows;
  for (size_t w : {base / 2, base, base * 2}) {
    w = std::clamp<size_t>(w, 8, series_length);
    if (std::find(windows.begin(), windows.end(), w) == windows.end()) {
      windows.push_back(w);
    }
  }
  return MakeEnsembleGrid(windows, {4, 6}, {3, 4, 5});
}

std::vector<double> NormalizeDensity(const std::vector<uint32_t>& density) {
  std::vector<double> normalized(density.size(), 0.0);
  if (density.empty()) {
    return normalized;
  }
  const auto [min_it, max_it] =
      std::minmax_element(density.begin(), density.end());
  const uint32_t min_d = *min_it;
  const uint32_t max_d = *max_it;
  if (max_d == min_d) {
    return normalized;  // constant curve: no structure to rank
  }
  const double range = static_cast<double>(max_d - min_d);
  for (size_t i = 0; i < density.size(); ++i) {
    normalized[i] = static_cast<double>(density[i] - min_d) / range;
  }
  return normalized;
}

std::vector<EnsembleAnomaly> FindLowScoreIntervals(
    const std::vector<double>& score, size_t edge_window,
    const DensityAnomalyOptions& options) {
  std::vector<EnsembleAnomaly> anomalies;
  for (const LowRun<double>& run :
       FindLowRuns<double>(score, edge_window, options)) {
    anomalies.push_back(
        EnsembleAnomaly{run.span, run.min, run.mean, anomalies.size()});
  }
  return anomalies;
}

StatusOr<EnsembleDetection> RunEnsemble(std::span<const double> series,
                                        const EnsembleOptions& options) {
  GVA_OBS_SPAN("ensemble.run");
  GVA_RETURN_IF_ERROR(options.anomaly.Validate());
  if (series.empty()) {
    return Status::InvalidArgument("ensemble: series is empty");
  }
  std::vector<EnsembleConfig> configs = options.configs;
  if (configs.empty()) {
    configs = AutoEnsembleGrid(series.size());
  }
  if (configs.empty()) {
    return Status::InvalidArgument("ensemble: empty configuration grid");
  }

  EnsembleDetection out;
  out.configs.resize(configs.size());

  // Upfront validation: a config that cannot run against this series is
  // recorded and skipped, never fatal (grids routinely mix windows, some of
  // which outgrow a short series).
  std::vector<size_t> valid;  // indices into configs
  valid.reserve(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    out.configs[i].config = configs[i];
    const SaxOptions sax = options.SaxFor(configs[i]);
    Status status = sax.Validate();
    if (status.ok() && configs[i].window > series.size()) {
      status = Status::InvalidArgument(
          StrFormat("window %zu exceeds series length %zu", configs[i].window,
                    series.size()));
    }
    if (status.ok()) {
      valid.push_back(i);
    } else {
      out.configs[i].error = status.ToString();
    }
  }
  if (valid.empty()) {
    return Status::InvalidArgument(StrFormat(
        "ensemble: no runnable configuration (first error: %s)",
        out.configs.empty() ? "none" : out.configs[0].error.c_str()));
  }

  // Canonical processing order: valid indices sorted by the configs' total
  // order (ties by caller position). Aggregation walks this order, which
  // makes the score bit-for-bit invariant under config-list permutations,
  // and the canonically-first config per plane key deterministically owns
  // the cache miss.
  std::vector<size_t> canonical = valid;
  std::stable_sort(canonical.begin(), canonical.end(),
                   [&configs](size_t a, size_t b) {
                     return configs[a] < configs[b];
                   });

  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  obs::Counter& config_us_counter = metrics.counter("ensemble.config.us");
  obs::Counter& cache_hit_counter = metrics.counter("ensemble.cache.hit");
  obs::Counter& cache_miss_counter = metrics.counter("ensemble.cache.miss");
  metrics.counter("ensemble.runs").Add(1);

  ThreadPool pool(options.num_threads);

  // Phase A (substrate): one RollingStats prefix-sum table for the series,
  // then one SaxZPlane per distinct (window, paa) key, rows computed on the
  // pool. Alphabet-only-differing configs share a plane — that sharing is
  // the cache, and its accounting is deterministic by construction.
  std::map<PlaneKey, SaxZPlane> planes;
  std::map<PlaneKey, Status> plane_errors;
  {
    GVA_OBS_SPAN("ensemble.substrate");
    const RollingStats stats(series);
    for (size_t idx : canonical) {
      const PlaneKey key = KeyOf(configs[idx]);
      const bool first_for_key =
          planes.find(key) == planes.end() &&
          plane_errors.find(key) == plane_errors.end();
      if (first_for_key) {
        StatusOr<SaxZPlane> plane = ComputeSaxZPlane(
            series, options.SaxFor(configs[idx]), &stats, &pool);
        if (plane.ok()) {
          planes.emplace(key, std::move(plane).value());
        } else {
          plane_errors.emplace(key, plane.status());
        }
        out.cache_misses += 1;
        cache_miss_counter.Add(1);
      } else {
        out.cache_hits += 1;
        cache_hit_counter.Add(1);
      }
      out.configs[idx].cache_hit = !first_for_key;
    }
  }

  // Phase B: every valid config through the decomposition pipeline, one
  // chunk of configs per pool lane. Each slot is written by exactly one
  // chunk and ParallelFor's join publishes the writes.
  {
    GVA_OBS_SPAN("ensemble.configs");
    pool.ParallelFor(
        0, valid.size(), [&](size_t begin, size_t end, size_t /*chunk*/) {
          for (size_t v = begin; v < end; ++v) {
            const size_t idx = valid[v];
            EnsembleConfigResult& slot = out.configs[idx];
            const SaxOptions sax = options.SaxFor(slot.config);
            const auto start = MonotonicClock::now();
            StatusOr<GrammarDecomposition> decomposition =
                [&]() -> StatusOr<GrammarDecomposition> {
              auto plane_error = plane_errors.find(KeyOf(slot.config));
              if (plane_error != plane_errors.end()) {
                return plane_error->second;
              }
              GVA_ASSIGN_OR_RETURN(
                  SaxRecords records,
                  DiscretizeWithZPlane(series, sax,
                                       planes.at(KeyOf(slot.config))));
              return DecomposeSeriesWithRecords(series, sax,
                                                std::move(records));
            }();
            slot.wall_us = ElapsedMicros(start);
            config_us_counter.Add(slot.wall_us);
            if (!decomposition.ok()) {
              slot.error = decomposition.status().ToString();
              continue;
            }
            GrammarDecomposition d = std::move(decomposition).value();
            slot.words = d.records.size();
            slot.rules = d.grammar.grammar.size();
            slot.intervals = d.intervals.size();
            slot.density = std::move(d.density);
            slot.ok = true;
          }
        });
  }

  // Aggregation, strictly in canonical order: mean of the per-config
  // min-max-normalized curves.
  out.score.assign(series.size(), 0.0);
  for (size_t idx : canonical) {
    const EnsembleConfigResult& result = out.configs[idx];
    if (!result.ok) {
      continue;
    }
    const std::vector<double> normalized = NormalizeDensity(result.density);
    for (size_t p = 0; p < out.score.size(); ++p) {
      out.score[p] += normalized[p];
    }
    out.configs_used += 1;
    out.max_window = std::max(out.max_window, result.config.window);
  }
  if (out.configs_used == 0) {
    for (size_t idx : valid) {
      if (!out.configs[idx].error.empty()) {
        return Status::Internal(StrFormat(
            "ensemble: every configuration failed (first error: %s)",
            out.configs[idx].error.c_str()));
      }
    }
    return Status::Internal("ensemble: every configuration failed");
  }
  if (out.configs_used > 1) {
    const double inv = 1.0 / static_cast<double>(out.configs_used);
    for (double& s : out.score) {
      s *= inv;
    }
  }

  out.anomalies =
      FindLowScoreIntervals(out.score, out.max_window, options.anomaly);

  metrics.counter("ensemble.configs.used").Add(out.configs_used);
  return out;
}

}  // namespace gva
