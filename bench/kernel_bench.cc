// Hot-path kernel benchmark: the SAX block kernel (Discretize) measured
// against an inline reimplementation of the pre-overhaul discretization
// (naive per-window z-normalize + PAA), and the distance kernel the
// library ships in a per-backend matrix — one row per available kernel
// backend (scalar / AVX2, see src/backend/) per distance case, with the
// scalar backend as the baseline column (SAX makes no dispatched call, so
// it has no matrix rows). Exactness is CHECKed on every configuration
// before any timing — byte-identical SAX records, and every backend's
// distances and abandon decisions bitwise equal to the scalar backend's —
// and the timings are emitted as machine-readable JSON (default
// BENCH_kernels.json) so later PRs have a perf trajectory to compare
// against.
//
//   kernel_bench [--smoke] [--out PATH]
//
// --smoke runs a seconds-scale configuration and skips the JSON (unless
// --out is given): it is wired into ctest under the `perf-smoke` label to
// assert exactness, not speed, so the binary cannot bit-rot.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "bench_util.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "discord/distance.h"
#include "obs/metrics.h"
#include "sax/mindist.h"
#include "sax/sax_transform.h"
#include "timeseries/sliding_window.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gva {
namespace {

// ---------------------------------------------------------------------------
// Pre-overhaul reference kernels ("before" side of the measurement).

/// The old Discretize: one full O(w) z-normalize + PAA per window.
SaxRecords NaiveDiscretize(std::span<const double> series,
                           const SaxOptions& opts,
                           NumerosityReduction numerosity) {
  const NormalAlphabet alphabet(opts.alphabet_size);
  const size_t windows = NumSlidingWindows(series.size(), opts.window);
  SaxRecords records;
  records.words.reserve(windows);
  records.offsets.reserve(windows);
  for (size_t pos = 0; pos < windows; ++pos) {
    std::string word =
        SaxWordForWindow(WindowAt(series, pos, opts.window), opts, alphabet);
    bool keep = true;
    if (!records.words.empty()) {
      const std::string& prev = records.words.back();
      switch (numerosity) {
        case NumerosityReduction::kNone:
          break;
        case NumerosityReduction::kExact:
          keep = (word != prev);
          break;
        case NumerosityReduction::kMinDist:
          keep = !MinDistIsZero(word, prev, alphabet);
          break;
      }
    }
    if (keep) {
      records.words.push_back(std::move(word));
      records.offsets.push_back(pos);
    }
  }
  return records;
}

// ---------------------------------------------------------------------------
// Timing helpers.

/// Best-of-`reps` wall time of `fn`, in seconds. Best-of suppresses
/// scheduling noise, which matters on the single-CPU containers this runs
/// in.
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

/// Times every side once per round, in order, for `rounds` rounds and
/// returns the best of each side in seconds. Alternating exposes all sides
/// to the same load on a shared host, where back-to-back best-of-N blocks
/// let one side run through a load spike another missed.
std::vector<double> AlternatingBestOf(
    int rounds, const std::vector<std::function<void()>>& sides) {
  std::vector<double> best(sides.size(), 1e300);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < sides.size(); ++i) {
      best[i] = std::min(best[i], BestOf(1, sides[i]));
    }
  }
  return best;
}

struct KernelRow {
  std::string name;
  std::string detail;
  double baseline_s = 0.0;
  double kernel_s = 0.0;
  double units = 0.0;  // items processed per run (points or elements)

  double Speedup() const { return baseline_s / kernel_s; }
};

void PrintRow(const KernelRow& row) {
  std::printf("%-28s %-30s baseline %9.4fs  kernel %9.4fs  speedup %6.2fx\n",
              row.name.c_str(), row.detail.c_str(), row.baseline_s,
              row.kernel_s, row.Speedup());
}

std::string JsonRow(const KernelRow& row) {
  return StrFormat(
      "    {\"name\": \"%s\", \"detail\": \"%s\", \"baseline_s\": %.6f, "
      "\"kernel_s\": %.6f, \"speedup\": %.3f, \"baseline_items_per_s\": "
      "%.0f, \"kernel_items_per_s\": %.0f}",
      row.name.c_str(), row.detail.c_str(), row.baseline_s, row.kernel_s,
      row.Speedup(), row.units / row.baseline_s, row.units / row.kernel_s);
}

// ---------------------------------------------------------------------------
// Benchmark stages.

const KernelRow* FindRow(const std::vector<KernelRow>& rows,
                         const std::string& name) {
  for (const KernelRow& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

/// Calls per query window in the distance workloads: the pair lists are
/// shaped like a search's scans, one query against a run of neighbors.
constexpr size_t kScanLength = 100;

/// A distance workload: call i compares window ps[i] (constant within each
/// run of kScanLength calls) with window qs[i] under limits[i].
struct PairList {
  std::vector<size_t> ps;
  std::vector<size_t> qs;
  std::vector<double> limits;
};

PairList MakeScanPairs(Rng& rng, size_t series_length, size_t length,
                       size_t calls) {
  PairList pairs;
  pairs.ps.resize(calls);
  pairs.qs.resize(calls);
  pairs.limits.assign(calls, SubsequenceDistance::kInfinity);
  const size_t windows = series_length - length + 1;
  for (size_t i = 0; i < calls; ++i) {
    pairs.ps[i] = i % kScanLength == 0 ? rng.UniformInt(windows)
                                       : pairs.ps[i - 1];
    pairs.qs[i] = rng.UniformInt(windows);
  }
  return pairs;
}

/// Makes every call of `pairs` through the entry the searches use: one
/// DistanceScan whose query is normalized once per run of kScanLength
/// calls, window statistics read from the table a search builds once.
/// Writes call i's result to (*out)[i] when `out` is non-null and returns
/// the sum of the completed distances (which keeps the loop alive).
double ScanPairs(const SubsequenceDistance& dist,
                 const std::vector<WindowStats>& stats,
                 const PairList& pairs, size_t length,
                 std::vector<double>* out = nullptr) {
  DistanceScan scan(dist);
  double sink = 0.0;
  for (size_t i = 0; i < pairs.ps.size(); ++i) {
    if (i % kScanLength == 0) {
      scan.SetQuery(pairs.ps[i], length, stats[pairs.ps[i]]);
    }
    const double d =
        scan.Distance(pairs.qs[i], stats[pairs.qs[i]], pairs.limits[i]);
    if (out != nullptr) {
      (*out)[i] = d;
    }
    if (d != SubsequenceDistance::kInfinity) {
      sink += d;
    }
  }
  return sink;
}

KernelRow BenchDiscretize(const std::string& name,
                          std::span<const double> series,
                          const SaxOptions& opts, int rounds) {
  // Exactness first: the incremental kernel must be byte-identical to the
  // reference on this exact configuration.
  const SaxRecords naive = NaiveDiscretize(series, opts, opts.numerosity);
  const auto fast = Discretize(series, opts);
  bench::Check(fast.ok(), name + ": incremental Discretize succeeds");
  if (fast.ok()) {
    bench::Check(fast->words == naive.words && fast->offsets == naive.offsets,
                 name + ": SAX records byte-identical to naive reference");
  }

  KernelRow row;
  row.name = "discretize/" + name;
  row.detail = StrFormat("n=%zu w=%zu paa=%zu a=%zu", series.size(),
                         opts.window, opts.paa_size, opts.alphabet_size);
  row.units = static_cast<double>(series.size());
  const std::vector<double> best = AlternatingBestOf(
      rounds,
      {[&] {
         const SaxRecords r = NaiveDiscretize(series, opts, opts.numerosity);
         if (r.words.empty()) {
           std::abort();  // keep the optimizer honest
         }
       },
       [&] {
         const auto r = Discretize(series, opts);
         if (!r.ok() || r->words.empty()) {
           std::abort();
         }
       }});
  row.baseline_s = best[0];
  row.kernel_s = best[1];
  return row;
}

// ---------------------------------------------------------------------------
// Per-backend matrix (src/backend/ dispatch layer).

/// One row per available backend for a distance case. The scalar backend
/// is the baseline column of every row, so a row's speedup reads "this
/// backend vs scalar on identical work". Before any timing, every backend
/// is CHECKed against scalar over the full pair list: every backend builds
/// the one distance kernel (DESIGN.md §11), so each call's result —
/// distance or abandon — must be the same bits. The backends are then timed
/// in `rounds` alternating rounds, best of each.
void BenchDistanceBackends(const std::string& name,
                           std::span<const double> series, size_t length,
                           size_t calls, bool abandoning, int rounds,
                           std::vector<KernelRow>* rows) {
  const std::vector<const backend::KernelBackend*> backends =
      backend::AvailableBackends();
  SubsequenceDistance scalar_dist(series, kDefaultZNormEpsilon,
                                  backend::ScalarBackend());
  const std::vector<WindowStats> stats = scalar_dist.StatsOfAllWindows(length);

  // Abandoning cases draw each limit from [0.5, 1.5) times the distance,
  // so about half the calls abandon.
  Rng rng(777);
  PairList pairs = MakeScanPairs(rng, series.size(), length, calls);
  if (abandoning) {
    std::vector<double> truth(calls);
    (void)ScanPairs(scalar_dist, stats, pairs, length, &truth);
    for (size_t i = 0; i < calls; ++i) {
      pairs.limits[i] = truth[i] * (0.5 + 1.0 * rng.UniformDouble());
    }
  }

  std::vector<double> want(calls);
  (void)ScanPairs(scalar_dist, stats, pairs, length, &want);
  for (const backend::KernelBackend* b : backends) {
    if (b == backend::ScalarBackend()) {
      continue;
    }
    SubsequenceDistance dist(series, kDefaultZNormEpsilon, b);
    std::vector<double> got(calls);
    (void)ScanPairs(dist, stats, pairs, length, &got);
    bench::Check(std::memcmp(got.data(), want.data(),
                             calls * sizeof(double)) == 0,
                 "distance/" + name + "[" + b->name +
                     "]: bitwise equal to scalar backend (" +
                     std::string(abandoning ? "abandoning" : "full") + ")");
  }

  const std::string detail =
      StrFormat("len=%zu calls=%zu %s", length, calls,
                abandoning ? "abandoning" : "full");
  const double units =
      static_cast<double>(calls) * static_cast<double>(length);
  double sink = 0.0;
  std::vector<SubsequenceDistance> dists;
  dists.reserve(backends.size());
  std::vector<std::function<void()>> sides;
  for (const backend::KernelBackend* b : backends) {
    const SubsequenceDistance* dist =
        &dists.emplace_back(series, kDefaultZNormEpsilon, b);
    sides.push_back(
        [&, dist] { sink += ScanPairs(*dist, stats, pairs, length); });
  }
  const std::vector<double> best = AlternatingBestOf(rounds, sides);
  const double scalar_s = best.back();  // scalar is always listed last
  for (size_t i = 0; i < backends.size(); ++i) {
    KernelRow row;
    row.name = "distance/" + name + "[" + backends[i]->name + "]";
    row.detail = detail;
    row.units = units;
    row.baseline_s = scalar_s;
    row.kernel_s = best[i];
    rows->push_back(row);
  }
  if (sink == 1e300) {  // never true; defeats dead-code elimination
    std::abort();
  }
}

/// Measures the marginal cost of the per-distance-call metrics
/// instrumentation at realistic call granularity: the same distance-call
/// loop once feeding the disabled (no-op) counter primitive and once the
/// enabled (relaxed-atomic) one — exactly the delta the GVA_OBS switch
/// toggles at each instrumentation site. Both primitive variants are always
/// compiled (templates), so one binary measures both sides. Here "baseline"
/// is obs-disabled and "kernel" is obs-enabled: a speedup near 1.0 means
/// the instrumentation is free; the smoke CHECK bounds the regression.
KernelRow BenchObsOverhead(std::span<const double> series, size_t length,
                           size_t calls, int reps) {
  // The scalar build, so the ratio stays comparable across hosts.
  SubsequenceDistance dist(series, kDefaultZNormEpsilon,
                           backend::ScalarBackend());
  const std::vector<WindowStats> stats = dist.StatsOfAllWindows(length);
  Rng rng(54321);
  const PairList pairs = MakeScanPairs(rng, series.size(), length, calls);

  obs::BasicCounter<false> off;
  obs::BasicCounter<true> on;
  double sink = 0.0;
  KernelRow row;
  row.name = "obs/counter_overhead";
  row.detail = StrFormat("len=%zu calls=%zu", length, calls);
  row.units = static_cast<double>(calls) * static_cast<double>(length);
  // The same call loop as ScanPairs, plus one counter touch per call.
  const auto loop = [&](auto& counter) {
    DistanceScan scan(dist);
    for (size_t i = 0; i < calls; ++i) {
      if (i % kScanLength == 0) {
        scan.SetQuery(pairs.ps[i], length, stats[pairs.ps[i]]);
      }
      sink += scan.Distance(pairs.qs[i], stats[pairs.qs[i]]);
      counter.Add();
    }
  };
  const std::vector<double> best =
      AlternatingBestOf(reps, {[&] { loop(off); }, [&] { loop(on); }});
  row.baseline_s = best[0];
  row.kernel_s = best[1];
  if (sink == 1e300) {  // never true; defeats dead-code elimination
    std::abort();
  }
  bench::Check(on.value() ==
                   static_cast<uint64_t>(calls) * static_cast<uint64_t>(reps),
               "obs overhead: enabled counter saw every call");
  bench::Check(off.value() == 0, "obs overhead: disabled counter stayed 0");
  return row;
}

int Run(bool smoke, const std::string& out_path) {
  bench::Header(smoke ? "Kernel bench (smoke)" : "Kernel bench");

  std::string backend_names;
  for (const backend::KernelBackend* b : backend::AvailableBackends()) {
    if (!backend_names.empty()) {
      backend_names += ", ";
    }
    backend_names += b->name;
  }
  std::printf("available backends: %s\n", backend_names.c_str());

  std::vector<KernelRow> rows;
  if (smoke) {
    const std::vector<double> sine = MakeSine(3000, 50.0, 0.05, 3);
    SaxOptions opts;
    opts.window = 60;
    opts.paa_size = 5;
    opts.alphabet_size = 4;
    rows.push_back(BenchDiscretize("sine_3k", sine, opts, 1));
    SaxOptions ragged = opts;
    ragged.window = 37;  // non-divisible geometry
    ragged.paa_size = 5;
    rows.push_back(BenchDiscretize("sine_3k_ragged", sine, ragged, 1));

    // Backend matrix on the smoke cases: cheap, and it keeps the
    // cross-backend equality CHECKs inside the default ctest run on every
    // host (on non-x86 ones only scalar exists).
    BenchDistanceBackends("sine_3k", sine, 64, 2000, false, 1, &rows);
    BenchDistanceBackends("sine_3k", sine, 64, 2000, true, 1, &rows);

    // The observability acceptance gate: per-call metrics must cost < 5%
    // on top of a realistic distance-call loop. Interleaved best-of-9 on a
    // ~ms-scale loop plus a small absolute epsilon keeps the check robust
    // to scheduler noise when ctest runs the suite in parallel.
    const KernelRow obs_row = BenchObsOverhead(sine, 120, 20000, 9);
#ifdef GVA_SANITIZED
    // Sanitizer instrumentation slows the obs-enabled side far more than
    // the disabled one (extra checks around every counter touch), so the
    // ratio no longer measures production overhead. The counter-correctness
    // checks inside BenchObsOverhead still ran; only the timing gate is
    // waived.
    bench::Check(true,
                 "obs overhead ratio waived under sanitizer instrumentation");
#else
    bench::Check(
        obs_row.kernel_s <= obs_row.baseline_s * 1.05 + 5e-4,
        StrFormat("obs-enabled distance loop within 5%% of disabled "
                  "(enabled %.4fms vs disabled %.4fms)",
                  obs_row.kernel_s * 1e3, obs_row.baseline_s * 1e3));
#endif
    rows.push_back(obs_row);
  } else {
    // The acceptance configuration: 100k points, w=180, paa=6, a=4.
    const std::vector<double> sine = MakeSine(100000, 200.0, 0.05, 3);
    SaxOptions opts;
    opts.window = 180;
    opts.paa_size = 6;
    opts.alphabet_size = 4;
    // Every timed row alternates its sides for 15 rounds, best of each.
    constexpr int kRounds = 15;
    rows.push_back(
        BenchDiscretize("sine_100k", sine, opts, kRounds));

    SaxOptions all_windows = opts;
    all_windows.numerosity = NumerosityReduction::kNone;
    rows.push_back(BenchDiscretize("sine_100k_allwin", sine, all_windows,
                                   kRounds));

    EcgOptions ecg_opts;
    ecg_opts.num_beats = 180;  // ~21.6k points
    const LabeledSeries ecg = MakeEcg(ecg_opts);
    SaxOptions ecg_sax;
    ecg_sax.window = 120;
    ecg_sax.paa_size = 4;
    ecg_sax.alphabet_size = 4;
    rows.push_back(
        BenchDiscretize("ecg", ecg.series, ecg_sax, kRounds));

    BenchDistanceBackends("sine_100k", sine, 180, 20000, false, kRounds,
                          &rows);
    BenchDistanceBackends("sine_100k", sine, 180, 20000, true, kRounds,
                          &rows);
    BenchDistanceBackends("sine_100k_long", sine, 1024, 5000, false, kRounds,
                          &rows);
    BenchDistanceBackends("ecg", ecg.series, 120, 20000, false, kRounds,
                          &rows);

    rows.push_back(BenchObsOverhead(sine, 180, 50000, 5));
  }

  std::printf("\n");
  for (const KernelRow& row : rows) {
    PrintRow(row);
  }

  // The headline acceptance number: incremental discretization must be at
  // least 3x the pre-overhaul implementation on the 100k configuration.
  if (!smoke) {
    bench::Check(rows[0].Speedup() >= 3.0,
                 StrFormat("discretize/sine_100k speedup %.2fx >= 3x",
                           rows[0].Speedup()));

    // The dispatch-layer acceptance gate: on an AVX2 host the AVX2 backend
    // must be >= 1.5x the scalar backend on the long-window distance case
    // (the configuration bounded by the scalar fold's FP-add latency
    // chain). Wall-clock ratios are meaningless under sanitizer
    // instrumentation, so the gate is waived there; the cross-backend
    // equality CHECKs above still ran.
    if (backend::Avx2Backend() != nullptr) {
      const KernelRow* scalar_row =
          FindRow(rows, "distance/sine_100k_long[scalar]");
      const KernelRow* avx2_row =
          FindRow(rows, "distance/sine_100k_long[avx2]");
      const double ratio =
          (scalar_row != nullptr && avx2_row != nullptr)
              ? scalar_row->kernel_s / avx2_row->kernel_s
              : 0.0;
#ifdef GVA_SANITIZED
      bench::Check(true,
                   StrFormat("avx2-vs-scalar gate waived under sanitizer "
                             "instrumentation (%.2fx)",
                             ratio));
#else
      bench::Check(ratio >= 1.5,
                   StrFormat("distance/sine_100k_long avx2 backend %.2fx >= "
                             "1.5x scalar backend",
                             ratio));
#endif
    }
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::string json = "{\n  \"bench\": \"kernel_bench\",\n";
    json += StrFormat("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    json += StrFormat("  \"block_size\": %zu,\n",
                      SubsequenceDistance::kBlock);
    json += "  \"backends\": [";
    {
      bool first = true;
      for (const backend::KernelBackend* b : backend::AvailableBackends()) {
        json += StrFormat("%s\"%s\"", first ? "" : ", ", b->name);
        first = false;
      }
    }
    json += "],\n";
    json +=
        "  \"note\": \"discretize rows: baseline = the pre-overhaul naive "
        "per-window z-norm+PAA discretization, reimplemented in-binary; "
        "kernel = the SAX block kernel (Discretize); the best of 15 rounds "
        "alternating the two sides. distance rows (one per [backend]): "
        "baseline = the scalar backend, kernel = that backend, on identical "
        "work (the dispatch matrix, DESIGN.md \\u00a711), called the way "
        "the searches call it (a DistanceScan normalizes each query once "
        "per run of 100 calls; window statistics come from a table built "
        "once, outside the timing); the best of 15 rounds alternating the "
        "backends. obs row: "
        "baseline = obs-disabled counter, kernel = obs-enabled counter. "
        "items = series points (discretize) or accumulated elements "
        "(distance).\",\n";
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
  std::string out_path = "BENCH_kernels.json";
  bool out_set = false;
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
    } else {
      std::printf(
          "usage: kernel_bench [--smoke] [--out PATH] [--trace=PATH] "
          "[--metrics=PATH] [--quiet]\n");
      return 2;
    }
  }
  if (smoke && !out_set) {
    out_path.clear();  // smoke mode asserts exactness; no JSON by default
  }
  auto session = gva::bench::MakeObsSession(obs_flags);
  return gva::Run(smoke, out_path);
}
