// Ensemble-engine benchmark: RunEnsemble's shared substrate (one
// RollingStats prefix-sum per series, one SaxZPlane per distinct
// (window, paa) key reused across alphabets) measured against the naive
// path that runs the grid one config at a time through the single-query
// pipeline (DecomposeSeries). Correctness is CHECKed on every
// configuration — each config's density curve bit-identical to its
// DecomposeSeries run, deterministic cache accounting — and the timings
// are emitted as machine-readable JSON (default BENCH_ensemble.json) so
// later PRs have a perf trajectory.
//
//   ensemble_bench [--smoke] [--out PATH] [--threads N]
//
// --smoke runs a seconds-scale configuration and skips the JSON (unless
// --out is given): it is wired into ctest under the `perf-smoke` and
// `ensemble` labels to assert exactness and cache accounting, not speed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/pipeline.h"
#include "datasets/ecg.h"
#include "datasets/power_demand.h"
#include "datasets/simple.h"
#include "ensemble/ensemble.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/strings.h"

namespace gva {
namespace {

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

struct EnsembleRow {
  std::string name;
  std::string detail;
  double naive_s = 0.0;
  double shared_s = 0.0;
  size_t configs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  double Speedup() const { return naive_s / shared_s; }
};

void PrintRow(const EnsembleRow& row) {
  std::printf(
      "%-24s %-36s naive %8.4fs  shared %8.4fs  speedup %5.2fx  "
      "cache %llu/%llu\n",
      row.name.c_str(), row.detail.c_str(), row.naive_s, row.shared_s,
      row.Speedup(), static_cast<unsigned long long>(row.cache_hits),
      static_cast<unsigned long long>(row.cache_hits + row.cache_misses));
}

std::string JsonRow(const EnsembleRow& row) {
  return StrFormat(
      "    {\"name\": \"%s\", \"detail\": \"%s\", \"configs\": %zu, "
      "\"naive_s\": %.6f, \"shared_s\": %.6f, \"speedup\": %.3f, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu}",
      row.name.c_str(), row.detail.c_str(), row.configs, row.naive_s,
      row.shared_s, row.Speedup(),
      static_cast<unsigned long long>(row.cache_hits),
      static_cast<unsigned long long>(row.cache_misses));
}

/// The naive path: the grid one config at a time through the single-query
/// pipeline. One density curve per config, empty where DecomposeSeries
/// fails (the configs the engine skips).
std::vector<std::vector<uint32_t>> RunNaive(std::span<const double> series,
                                            const EnsembleOptions& options) {
  std::vector<std::vector<uint32_t>> curves;
  curves.reserve(options.configs.size());
  for (const EnsembleConfig& config : options.configs) {
    auto decomposition = DecomposeSeries(series, options.SaxFor(config));
    curves.push_back(decomposition.ok() ? std::move(decomposition->density)
                                        : std::vector<uint32_t>{});
  }
  return curves;
}

EnsembleRow BenchGrid(const std::string& name,
                      std::span<const double> series,
                      const std::vector<EnsembleConfig>& grid,
                      size_t num_threads, int reps) {
  EnsembleOptions shared;
  shared.configs = grid;
  shared.num_threads = num_threads;

  // Correctness first: every config's curve from the shared substrate must
  // be the one its own DecomposeSeries run produces, bit for bit, and the
  // cache accounting must match the grid's key structure exactly.
  const uint64_t hits_before =
      obs::GlobalMetrics().counter("ensemble.cache.hit").value();
  const auto shared_run = RunEnsemble(series, shared);
  bench::Check(shared_run.ok(), name + ": the ensemble run succeeds");
  if (!shared_run.ok()) {
    return EnsembleRow{name, "failed", 1.0, 1.0, grid.size(), 0, 0};
  }
  const std::vector<std::vector<uint32_t>> naive_curves =
      RunNaive(series, shared);
  for (size_t i = 0; i < grid.size(); ++i) {
    const EnsembleConfigResult& result = shared_run->configs[i];
    bench::Check(result.ok == !naive_curves[i].empty() &&
                     result.density == naive_curves[i],
                 StrFormat("%s: config (w=%zu paa=%zu a=%zu) density "
                           "bit-identical to DecomposeSeries",
                           name.c_str(), grid[i].window, grid[i].paa_size,
                           grid[i].alphabet_size));
  }

  // Recompute the grid's key structure the way the engine defines it: a
  // config is runnable iff its SaxOptions validate against this series.
  std::set<std::pair<size_t, size_t>> keys;
  size_t runnable = 0;
  for (const EnsembleConfig& c : grid) {
    if (shared.SaxFor(c).Validate().ok() && c.window <= series.size()) {
      keys.insert({c.window, c.paa_size});
      ++runnable;
    }
  }
  bench::Check(shared_run->cache_misses == keys.size(),
               StrFormat("%s: one z-plane miss per distinct (w, paa) key "
                         "(%llu misses, %zu keys)",
                         name.c_str(),
                         static_cast<unsigned long long>(
                             shared_run->cache_misses),
                         keys.size()));
  bench::Check(shared_run->cache_hits == runnable - keys.size(),
               StrFormat("%s: every other config is a cache hit (%llu)",
                         name.c_str(),
                         static_cast<unsigned long long>(
                             shared_run->cache_hits)));
  bench::Check(shared_run->cache_hits > 0,
               name + ": the grid exercises z-plane sharing (hits > 0)");
  if (obs::kEnabled) {  // the registry is compiled away under GVA_OBS=OFF
    const uint64_t hits_after =
        obs::GlobalMetrics().counter("ensemble.cache.hit").value();
    bench::Check(hits_after - hits_before == shared_run->cache_hits,
                 name + ": ensemble.cache.hit counter tracks the run");
  }

  EnsembleRow row;
  row.name = "ensemble/" + name;
  row.detail = StrFormat("n=%zu configs=%zu threads=%zu", series.size(),
                         grid.size(), num_threads);
  row.configs = grid.size();
  row.cache_hits = shared_run->cache_hits;
  row.cache_misses = shared_run->cache_misses;
  row.naive_s = BestOf(reps, [&] {
    if (RunNaive(series, shared).empty()) {
      std::abort();  // keep the optimizer honest
    }
  });
  row.shared_s = BestOf(reps, [&] {
    const auto r = RunEnsemble(series, shared);
    if (!r.ok() || r->score.empty()) {
      std::abort();
    }
  });
  return row;
}

int Run(bool smoke, const std::string& out_path, size_t num_threads) {
  bench::Header(smoke ? "Ensemble bench (smoke)" : "Ensemble bench");

  std::vector<EnsembleRow> rows;
  if (smoke) {
    const LabeledSeries ecg = MakeEcg();
    rows.push_back(BenchGrid(
        "ecg_alpha_sweep", ecg.series,
        MakeEnsembleGrid({80, 160}, {4}, {3, 4, 5}), num_threads, 1));
    rows.push_back(BenchGrid(
        "ecg_auto", ecg.series, AutoEnsembleGrid(ecg.series.size()),
        num_threads, 1));
  } else {
    const LabeledSeries sine =
        MakeSineWithAnomaly(50000, 250.0, 0.02, 25000, 120, 7);
    rows.push_back(BenchGrid(
        "sine_50k", sine.series,
        MakeEnsembleGrid({125, 250, 500}, {4, 8}, {3, 5, 7}), 1, 3));
    rows.push_back(BenchGrid(
        "sine_50k_mt", sine.series,
        MakeEnsembleGrid({125, 250, 500}, {4, 8}, {3, 5, 7}), 0, 3));

    EcgOptions ecg_opts;
    ecg_opts.num_beats = 180;
    const LabeledSeries ecg = MakeEcg(ecg_opts);
    rows.push_back(BenchGrid(
        "ecg_21k", ecg.series, MakeEnsembleGrid({60, 120, 240}, {4, 6},
                                                {3, 4, 5}),
        1, 3));

    const LabeledSeries power = MakePowerDemand();
    rows.push_back(BenchGrid(
        "power", power.series, AutoEnsembleGrid(power.series.size()), 1, 3));
  }

  std::printf("\n");
  for (const EnsembleRow& row : rows) {
    PrintRow(row);
  }

  if (!smoke) {
    // The headline acceptance number: on the alphabet-heavy grids the
    // shared substrate must beat per-config pipelines outright.
    bench::Check(rows[0].Speedup() > 1.0,
                 StrFormat("ensemble/sine_50k shared beats naive (%.2fx)",
                           rows[0].Speedup()));
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::string json = "{\n  \"bench\": \"ensemble_bench\",\n";
    json += StrFormat("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    json +=
        "  \"note\": \"naive = the grid one config at a time through "
        "DecomposeSeries (discretize->Sequitur->density), always serial, "
        "so the _mt row compares a serial naive column with a shared run "
        "on every hardware thread; shared = RunEnsemble: one RollingStats "
        "prefix-sum per series plus one SaxZPlane per distinct (window, "
        "paa) key reused across alphabet-only-differing configs. Each "
        "config's density curve is CHECKed bit-identical to its "
        "DecomposeSeries run. cache_hits + cache_misses = runnable "
        "configs.\",\n";
    json += "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      json += JsonRow(rows[i]);
      json += i + 1 < rows.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return bench::CheckExitCode();
}

}  // namespace
}  // namespace gva

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ensemble.json";
  bool out_set = false;
  size_t num_threads = 0;
  gva::bench::ObsFlags obs_flags;
  for (int i = 1; i < argc; ++i) {
    if (gva::bench::ParseObsFlag(argv[i], &obs_flags)) {
      continue;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      out_set = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const gva::StatusOr<uint64_t> parsed = gva::ParseUnsigned(
          argv[++i], std::numeric_limits<size_t>::max());
      if (!parsed.ok()) {
        std::fprintf(stderr, "--threads: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      num_threads = static_cast<size_t>(*parsed);
    } else {
      std::printf(
          "usage: ensemble_bench [--smoke] [--out PATH] [--threads N] "
          "[--trace=PATH] [--metrics=PATH] [--quiet]\n");
      return 2;
    }
  }
  if (smoke && !out_set) {
    out_path.clear();  // smoke mode asserts exactness; no JSON by default
  }
  auto session = gva::bench::MakeObsSession(obs_flags);
  return gva::Run(smoke, out_path, num_threads);
}
