#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "bench_util.h"
#include "core/evaluate.h"
#include "core/job_runner.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "core/streaming.h"
#include "datasets/ecg.h"
#include "datasets/simple.h"
#include "discord/brute_force.h"
#include "discord/hotsax.h"
#include "ensemble/ensemble.h"
#include "grammar/sequitur.h"
#include "layers.h"
#include "net/http.h"
#include "sax/sax_transform.h"
#include "serverd_client.h"
#include "table1_rows.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "viz/json_report.h"

namespace gva::bench {
namespace {

// ---------------------------------------------------------------------------
// Measurement plumbing shared by every workload.

/// Set-up runs at least kSetupRepeats times and for at least
/// kSetupMinSeconds: the first tens of milliseconds of a process are often
/// slower, and a median over more of them reports the steady cost.
constexpr int kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 0.25;
/// A traced run spends this share of --seconds on untraced passes (the
/// base the layer shares divide by) and the same share on traced passes.
constexpr double kTracedPhaseShare = 0.4;
/// In-process threads that compute the reference results before timing
/// (no daemon runs then), so the bench stays within 4 threads.
constexpr size_t kReferenceThreads = 4;
/// The p90 is taken per block of this many consecutive operations (ten
/// beyond it in each) and the median over the blocks is reported.
constexpr size_t kTailBlock = 100;

/// End-to-end samples of one untraced run.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> op_ms;      // latency of one operation, in run order
  std::vector<double> pts_per_s;  // input points per second, per pass
  double peak_rss_mib = 0.0;
};

/// The median over blocks of kTailBlock consecutive values of each block's
/// q-quantile; the quantile of all values when there are fewer than three
/// blocks. A slowdown of the shared host that covers a minority of the
/// blocks moves it little, where it would set the p90 of the whole run.
double BlockQuantile(const std::vector<double>& values, double q) {
  if (values.size() < 3 * kTailBlock) {
    return Quantile(values, q);
  }
  std::vector<double> per_block;
  for (size_t start = 0; start + kTailBlock <= values.size();
       start += kTailBlock) {
    per_block.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(start),
                            values.begin() +
                                static_cast<ptrdiff_t>(start + kTailBlock)),
        q));
  }
  return Median(per_block);
}

void EmitEndToEnd(const EndToEnd& e, MetricSink* sink) {
  sink->Add("setup_s", Median(e.setup_s), "s", e.setup_s.size());
  sink->Add("latency_p50_ms", Quantile(e.op_ms, 0.5), "ms", e.op_ms.size());
  sink->Add("latency_p90_ms", BlockQuantile(e.op_ms, 0.9), "ms",
            e.op_ms.size());
  sink->Add("throughput_pts_per_s", Median(e.pts_per_s), "pts/s",
            e.pts_per_s.size());
  sink->Add("peak_rss_mb", e.peak_rss_mib, "MiB", 1);
}

/// Per-layer results of one traced run. A layer the workload does not run
/// reads 0.
struct PerLayer {
  size_t samples = 0;  // traced passes (serverd: rounds) behind the shares
  std::array<double, static_cast<size_t>(Layer::kCount)> share{};
  double unattributed_frac = 0.0;
  double trace_overhead_frac = 0.0;
  // Per-unit probes on the workload's own series (see RunProbes).
  double sax_ns_per_point = 0.0;
  double sax_online_ns_per_sample = 0.0;
  double grammar_ns_per_token = 0.0;
  double grammar_append_ns_per_token = 0.0;
  double json_ms_per_mib = 0.0;
  double http_ms_per_mib = 0.0;
  // Scaling probes, identical in every workload (see RunScalingProbes).
  double sequitur_slope = 0.0;
  double pipeline_ns_per_point_250k = 0.0;
  double pipeline_ns_per_point_1m = 0.0;
  double pipeline_ns_per_point_4m = 0.0;
  // Work counts of one traced pass.
  LayerCounts counts;
  size_t online_fallback_words = 0;
  size_t stream_retained_tokens_max = 0;
  size_t stream_evictions = 0;
  double server_polls_per_job = 0.0;
  double server_request_kib = 0.0;
  double server_submit_share = 0.0;
  double server_jobs_completed = 0.0;
  std::map<std::string, double> server_run_share = {
      {"density", 0.0}, {"rra", 0.0}, {"hotsax", 0.0}, {"auto", 0.0}};
  double hit_rate = 0.0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

SaxOptions Sax(size_t window, size_t paa, size_t alphabet) {
  SaxOptions sax;
  sax.window = window;
  sax.paa_size = paa;
  sax.alphabet_size = alphabet;
  return sax;
}

void EmitPerLayer(const PerLayer& p, MetricSink* sink) {
  const size_t n = p.samples;
  sink->Add("unattributed_frac", p.unattributed_frac, "fraction", n);
  sink->Add("trace_overhead_frac", p.trace_overhead_frac, "fraction", n);
  for (size_t l = 0; l < p.share.size(); ++l) {
    sink->Add(kLayerNames[l].share, p.share[l], "fraction", n);
  }
  sink->Add("sax.ns_per_point", p.sax_ns_per_point, "ns", 3);
  sink->Add("sax.online_ns_per_sample", p.sax_online_ns_per_sample, "ns", 3);
  sink->Add("grammar.ns_per_token", p.grammar_ns_per_token, "ns", 3);
  sink->Add("grammar.append_ns_per_token", p.grammar_append_ns_per_token,
            "ns", 3);
  sink->Add("json.parse_ms_per_mib", p.json_ms_per_mib, "ms/MiB", 3);
  sink->Add("http.parse_ms_per_mib", p.http_ms_per_mib, "ms/MiB", 3);
  sink->Add("grammar.sequitur_slope", p.sequitur_slope, "ratio", 3);
  sink->Add("pipeline.ns_per_point_250k", p.pipeline_ns_per_point_250k, "ns",
            3);
  sink->Add("pipeline.ns_per_point_1m", p.pipeline_ns_per_point_1m, "ns", 3);
  sink->Add("pipeline.ns_per_point_4m", p.pipeline_ns_per_point_4m, "ns", 1);
  const LayerCounts& c = p.counts;
  sink->Add("sax.words", static_cast<double>(c.words), "count", 1);
  sink->Add("sax.fallback_rows",
            static_cast<double>(c.zplane_fallback_rows +
                                p.online_fallback_words),
            "count", 1);
  sink->Add("grammar.tokens", static_cast<double>(c.tokens), "count", 1);
  sink->Add("grammar.rules", static_cast<double>(c.rules), "count", 1);
  sink->Add("grammar.intervals", static_cast<double>(c.intervals), "count", 1);
  sink->Add("discord.candidates", static_cast<double>(c.candidates), "count",
            1);
  sink->Add("discord.calls", static_cast<double>(c.calls), "count", 1);
  sink->Add("discord.abandon_ratio",
            Ratio(static_cast<double>(c.calls_abandoned),
                  static_cast<double>(c.calls)),
            "fraction", 1);
  sink->Add("discord.prune_ratio",
            Ratio(static_cast<double>(c.pruned),
                  static_cast<double>(c.visited)),
            "fraction", 1);
  sink->Add("ensemble.configs", static_cast<double>(c.configs), "count", 1);
  sink->Add("ensemble.cache_hit_ratio",
            Ratio(static_cast<double>(c.cache_hits),
                  static_cast<double>(c.configs)),
            "fraction", 1);
  sink->Add("stream.retained_tokens_max",
            static_cast<double>(p.stream_retained_tokens_max), "count", 1);
  sink->Add("stream.evictions", static_cast<double>(p.stream_evictions),
            "count", 1);
  sink->Add("server.polls_per_job", p.server_polls_per_job, "count", n);
  sink->Add("server.request_kib", p.server_request_kib, "KiB", n);
  sink->Add("server.submit_share", p.server_submit_share, "fraction", n);
  sink->Add("server.jobs_completed", p.server_jobs_completed, "count", 1);
  for (const auto& [detector, share] : p.server_run_share) {
    sink->Add("server.run_share." + detector, share, "fraction", n);
  }
  sink->Add("quality.hit_rate", p.hit_rate, "fraction", 1);
}

/// Layer shares of the untraced time: `clock` holds the layer seconds
/// accumulated over traced passes whose untraced counterparts took
/// `untraced_seconds` in total.
void SetShares(const LayerClock& clock, double untraced_seconds,
               PerLayer* out) {
  double sum = 0.0;
  for (size_t l = 0; l < out->share.size(); ++l) {
    out->share[l] = Ratio(clock.seconds(static_cast<Layer>(l)),
                          untraced_seconds);
    sum += out->share[l];
  }
  out->unattributed_frac = 1.0 - sum;
}

/// Calls `pass` until `seconds` of wall time have elapsed and it ran
/// `min_passes` times. Each call returns the seconds its timed operations
/// took (result checks excluded); returns those.
std::vector<double> TimePasses(double seconds, size_t min_passes,
                               const std::function<double()>& pass) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < min_passes || SecondsSince(start) < seconds) {
    times.push_back(pass());
  }
  return times;
}

/// Runs `call`, adds its wall time to `*seconds`, returns its result.
template <typename Call>
auto Timed(double* seconds, Call&& call) {
  const Clock::time_point t0 = Clock::now();
  auto result = call();
  *seconds += SecondsSince(t0);
  return result;
}

// Seeds. Every workload analyses fixed series, because the detectors' cost
// depends strongly on the particular series: across noise realizations of
// the same generators HOTSAX's Table-1 pass takes 270-400 ms and the
// 18-config ensemble 1.7-2.5 s, so a seed that regenerated the series would
// measure the data, not the code. --seed instead shifts each series by its
// own constant in [-1, 1), which z-normalization removes (the detectors do
// the same work on different input bytes), and orders the Table-1 rows.

double SeedShift(uint64_t seed, uint64_t series_index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + series_index);
  return 2.0 * rng.UniformDouble() - 1.0;
}

void Shift(std::vector<double>* values, double by) {
  for (double& v : *values) {
    v += by;
  }
}

template <typename MakeInputs>
auto TimedSetup(const RunContext& ctx, EndToEnd* e2e, MakeInputs&& make) {
  const int repeats = ctx.smoke ? 1 : kSetupRepeats;
  const double min_seconds = ctx.smoke ? 0.0 : kSetupMinSeconds;
  const Clock::time_point start = Clock::now();
  for (int r = 1;; ++r) {
    const Clock::time_point t0 = Clock::now();
    auto inputs = make();
    e2e->setup_s.push_back(SecondsSince(t0));
    if (r >= repeats && SecondsSince(start) >= min_seconds) {
      return inputs;
    }
  }
}

size_t MinPasses(const RunContext& ctx) { return ctx.smoke ? 1 : 3; }

/// The two phases of a traced run, kTracedPhaseShare of --seconds each:
/// untraced passes give the base time, then traced passes charge `clock`.
/// Sets the layer shares, the trace overhead and the sample count.
void MeasureTraced(const RunContext& ctx,
                   const std::function<double()>& untraced,
                   const std::function<double()>& traced,
                   const LayerClock& clock, PerLayer* per_layer) {
  const double phase = ctx.seconds * kTracedPhaseShare;
  const double base = Median(TimePasses(phase, MinPasses(ctx), untraced));
  const std::vector<double> times = TimePasses(phase, MinPasses(ctx), traced);
  SetShares(clock, base * static_cast<double>(times.size()), per_layer);
  per_layer->trace_overhead_frac = Median(times) / base - 1.0;
  per_layer->samples = times.size();
}

/// One pass of a batch workload over its fixed inputs: records each detector
/// call in the tally and returns the seconds the calls took. With null
/// counts it calls the one-call entry points; otherwise the layered rebuilds,
/// charged to the clock, adding their work to the counts.
using BatchPass = std::function<double(OpTally*, LayerClock*, LayerCounts*)>;

/// Untraced: passes for --seconds, one operation per pass. Traced: see
/// MeasureTraced.
void MeasureBatch(const RunContext& ctx, double points_per_pass,
                  const BatchPass& pass, EndToEnd* e2e, PerLayer* per_layer,
                  LayerClock* clock, OpTally* tally) {
  auto untraced = [&] { return pass(tally, nullptr, nullptr); };
  if (!ctx.traced) {
    for (double t : TimePasses(ctx.seconds, MinPasses(ctx), untraced)) {
      e2e->op_ms.push_back(t * 1e3);
      e2e->pts_per_s.push_back(points_per_pass / t);
    }
    return;
  }
  MeasureTraced(
      ctx, untraced,
      [&] {
        per_layer->counts = LayerCounts{};
        return pass(tally, clock, &per_layer->counts);
      },
      *clock, per_layer);
}

// ---------------------------------------------------------------------------
// Per-unit probes: each library layer timed alone on the workload's series.

template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

std::string JobBody(const std::string& detector,
                    std::span<const double> series, bool with_config) {
  JsonValue body = JsonValue::Object();
  body.Set("detector", JsonValue::String(detector));
  JsonValue values = JsonValue::Array();
  for (double v : series) {
    values.Append(JsonValue::Number(v));
  }
  body.Set("series", std::move(values));
  if (with_config) {
    body.Set("window", JsonValue::Number(120));
    body.Set("paa", JsonValue::Number(4));
    body.Set("alphabet", JsonValue::Number(4));
  }
  body.Set("top", JsonValue::Number(3));
  body.Set("threads", JsonValue::Number(1));
  return body.Dump();
}

/// SAX (batch and online), Sequitur (batch and appends), and the serverd
/// request parsers (JSON body, HTTP framing) on up to 250k points of `series`
/// under `sax`; every probe is the median of three calls.
void RunProbes(std::span<const double> series, const SaxOptions& sax,
               PerLayer* out) {
  constexpr int kRepeats = 3;
  series = series.first(std::min<size_t>(series.size(), 250'000));
  const double n = static_cast<double>(series.size());

  StatusOr<SaxRecords> records = Status::FailedPrecondition("not run");
  out->sax_ns_per_point =
      MedianSeconds(kRepeats, [&] { records = Discretize(series, sax); }) *
      1e9 / n;
  Check(records.ok() && !records->empty(), "probe: Discretize");
  if (!records.ok() || records->empty()) {
    return;
  }

  size_t fallback = 0;
  out->sax_online_ns_per_sample =
      MedianSeconds(kRepeats,
                    [&] {
                      OnlineSaxDiscretizer online(sax);
                      std::string word;
                      size_t pos = 0;
                      for (double v : series) {
                        online.Push(v, word, &pos);
                      }
                      fallback = online.fallback_words();
                    }) *
      1e9 / n;
  out->online_fallback_words = fallback;

  const double tokens = static_cast<double>(records->size());
  bool ok = true;
  out->grammar_ns_per_token =
      MedianSeconds(kRepeats,
                    [&] { ok &= InferGrammarFromWords(records->words).ok(); }) *
      1e9 / tokens;
  std::map<std::string, int32_t> vocabulary;
  std::vector<int32_t> ids;
  ids.reserve(records->size());
  for (const std::string& word : records->words) {
    ids.push_back(vocabulary
                      .emplace(word, static_cast<int32_t>(vocabulary.size()))
                      .first->second);
  }
  out->grammar_append_ns_per_token =
      MedianSeconds(kRepeats,
                    [&] {
                      IncrementalSequitur sequitur;
                      for (int32_t id : ids) {
                        ok &= sequitur.Append(id).ok();
                      }
                    }) *
      1e9 / tokens;

  // A job body carrying up to 16k points of the series, as serverd_jobs
  // submits it.
  const std::string body =
      JobBody("density", series.first(std::min<size_t>(series.size(), 16000)),
              true);
  const std::string request =
      "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const double mib = static_cast<double>(body.size()) / (1024.0 * 1024.0);
  constexpr int kParses = 20;
  out->json_ms_per_mib = MedianSeconds(kRepeats,
                                       [&] {
                                         for (int i = 0; i < kParses; ++i) {
                                           ok &= ParseJson(body).ok();
                                         }
                                       }) *
                         1e3 / (mib * kParses);
  out->http_ms_per_mib =
      MedianSeconds(kRepeats,
                    [&] {
                      for (int i = 0; i < kParses; ++i) {
                        net::HttpParser parser;
                        parser.Feed(request);
                        ok &= parser.Parse() ==
                              net::HttpParser::State::kComplete;
                      }
                    }) *
      1e3 / (mib * kParses);
  Check(ok, "probes: Sequitur, JSON and HTTP parsers succeed");
}

/// A long ECG at the beat length the Table-1 ECG rows use, with `anomalies`
/// anomalous beats spread over it, shifted by `shift`.
LabeledSeries MakeLongEcg(size_t length, size_t anomalies, double shift) {
  EcgOptions o;
  o.num_beats = length / o.beat_length + 2;
  o.anomalous_beats.clear();
  Rng rng(0xec9);
  const size_t stride = o.num_beats / (anomalies + 1);
  for (size_t k = 1; k <= anomalies; ++k) {
    o.anomalous_beats.push_back(k * stride + rng.UniformInt(stride / 2 + 1));
  }
  LabeledSeries d = MakeEcg(o);
  d.series.mutable_values().resize(length);
  Shift(&d.series.mutable_values(), shift);
  std::erase_if(d.anomalies,
                [length](const Interval& a) { return a.end > length; });
  return d;
}

/// The workload-independent scaling probes, replacing a length sweep: the
/// log-log slope of InferGrammarFromWords time against token count for the
/// (120,6,5) words of an ECG at 125k/250k/500k points (1.0 is linear), and
/// DetectDensityAnomalies ns per point at (120,4,4) for 250k, 1M and 4M
/// points. Smoke runs scale every size down by 20.
void RunScalingProbes(const RunContext& ctx, PerLayer* out) {
  const size_t scale = ctx.smoke ? 20 : 1;
  const LabeledSeries ecg =
      MakeLongEcg(4'000'000 / scale, 4, SeedShift(ctx.seed, 0));
  const std::span<const double> all(ecg.series.values());

  bool ok = true;
  std::vector<double> log_tokens;
  std::vector<double> log_seconds;
  constexpr size_t kSlopePoints[] = {125'000, 250'000, 500'000};
  for (size_t points : kSlopePoints) {
    StatusOr<SaxRecords> records =
        Discretize(all.first(points / scale), Sax(120, 6, 5));
    if (!records.ok()) {
      Check(false, "scaling probe: Discretize");
      return;
    }
    const double seconds = MedianSeconds(points < 500'000 ? 3 : 1, [&] {
      ok &= InferGrammarFromWords(records->words).ok();
    });
    log_tokens.push_back(std::log(static_cast<double>(records->size())));
    log_seconds.push_back(std::log(seconds));
  }
  const double mx = (log_tokens[0] + log_tokens[1] + log_tokens[2]) / 3.0;
  const double my = (log_seconds[0] + log_seconds[1] + log_seconds[2]) / 3.0;
  double sxy = 0.0;
  double sxx = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    sxy += (log_tokens[i] - mx) * (log_seconds[i] - my);
    sxx += (log_tokens[i] - mx) * (log_tokens[i] - mx);
  }
  out->sequitur_slope = Ratio(sxy, sxx);

  double* targets[] = {&out->pipeline_ns_per_point_250k,
                       &out->pipeline_ns_per_point_1m,
                       &out->pipeline_ns_per_point_4m};
  const size_t sizes[] = {250'000, 1'000'000, 4'000'000};
  for (size_t i = 0; i < 3; ++i) {
    const std::span<const double> prefix = all.first(sizes[i] / scale);
    *targets[i] = MedianSeconds(i < 2 ? 3 : 1,
                                [&] {
                                  ok &= DetectDensityAnomalies(
                                            prefix, Sax(120, 4, 4))
                                            .ok();
                                }) *
                  1e9 / static_cast<double>(prefix.size());
  }
  Check(ok, "scaling probes: Sequitur and density succeed");
}

void FinishTraced(const RunContext& ctx, std::span<const double> probe_series,
                  const SaxOptions& probe_sax, PerLayer* per_layer,
                  LayerClock* clock, WorkloadOutput* out) {
  RunProbes(probe_series, probe_sax, per_layer);
  RunScalingProbes(ctx, per_layer);
  EmitPerLayer(*per_layer, &out->metrics);
  if (!ctx.trace_out.empty()) {
    const Status written = clock->tracer().WriteChromeTrace(ctx.trace_out);
    Check(written.ok(), "Chrome trace written to " + ctx.trace_out);
  }
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// ---------------------------------------------------------------------------
// table1_rra: the fourteen Table-1 rows through RRA~.

/// HOTSAX equals brute force on the rows brute force checks in a blink.
void CheckHotSaxOnSmallRows(const std::vector<Table1Row>& rows) {
  for (const Table1Row& row : rows) {
    if (row.data.series.size() >= 6000) {
      continue;
    }
    HotSaxOptions options;
    options.sax = row.data.recommended;
    StatusOr<DiscordResult> hotsax =
        FindDiscordsHotSax(row.data.series.values(), options);
    StatusOr<DiscordResult> brute =
        FindDiscordsBruteForce(row.data.series.values(),
                               row.data.recommended.window, 1,
                               kReferenceThreads);
    Check(hotsax.ok() && brute.ok() && !hotsax->discords.empty() &&
              !brute->discords.empty() &&
              brute->discords[0].position == hotsax->discords[0].position &&
              NearlyEqual(hotsax->discords[0].distance,
                          brute->discords[0].distance),
          row.name + ": HOTSAX equals brute force");
  }
}

void RunTable1Rra(const RunContext& ctx, WorkloadOutput* out) {
  EndToEnd e2e;
  std::vector<Table1Row> rows = TimedSetup(ctx, &e2e, [&] {
    std::vector<Table1Row> made = MakeTable1Rows();
    if (ctx.smoke) {  // the rows brute force can check in a blink
      std::erase_if(made, [](const Table1Row& r) {
        return r.data.series.size() >= 6000;
      });
    }
    for (size_t i = 0; i < made.size(); ++i) {
      Shift(&made[i].data.series.mutable_values(), SeedShift(ctx.seed, i));
    }
    Rng(ctx.seed).Shuffle(made);
    return made;
  });

  auto search = [](const Table1Row& row, LayerClock* clock,
                   LayerCounts* counts) -> StatusOr<DiscordResult> {
    const std::span<const double> series(row.data.series.values());
    RraOptions options;
    options.sax = row.data.recommended;
    options.exact_nearest_neighbor = false;  // RRA~
    StatusOr<RraDetection> detection =
        counts != nullptr ? LayeredRra(series, options, clock, counts)
                          : FindRraDiscords(series, options);
    GVA_RETURN_IF_ERROR(detection.status());
    return std::move(detection->result);
  };

  // Reference pass: CHECKs before anything is timed.
  CheckHotSaxOnSmallRows(rows);
  double points = 0.0;
  size_t hits = 0;
  std::vector<DiscordResult> reference;
  for (const Table1Row& row : rows) {
    points += static_cast<double>(row.data.series.size());
    StatusOr<DiscordResult> result = search(row, nullptr, nullptr);
    const bool found = result.ok() && !result->discords.empty();
    Check(found, row.name + ": search returns a discord");
    if (!found) {
      reference.emplace_back();
      continue;
    }
    Check(result->distance_calls_completed +
                  result->distance_calls_abandoned ==
              result->distance_calls,
          row.name + ": completed + abandoned == calls");
    if (HitsAnyTruth(result->discords[0].span(), row.data.anomalies,
                     row.data.recommended.window)) {
      ++hits;
    }
    reference.push_back(std::move(*result));
  }

  auto pass = [&](OpTally* tally, LayerClock* clock, LayerCounts* counts) {
    double seconds = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      StatusOr<DiscordResult> r =
          Timed(&seconds, [&] { return search(rows[i], clock, counts); });
      tally->Record(r.ok() && SameSearch(*r, reference[i]));
    }
    return seconds;
  };
  PerLayer per_layer;
  LayerClock clock;
  MeasureBatch(ctx, points, pass, &e2e, &per_layer, &clock, &out->tally);
  per_layer.hit_rate = Ratio(static_cast<double>(hits),
                             static_cast<double>(rows.size()));
  std::printf("hits: %zu / %zu rows\n", hits, rows.size());
  if (!ctx.traced) {
    e2e.peak_rss_mib = PeakRssMib();
    EmitEndToEnd(e2e, &out->metrics);
    return;
  }
  const Table1Row& largest = *std::max_element(
      rows.begin(), rows.end(), [](const Table1Row& a, const Table1Row& b) {
        return a.data.series.size() < b.data.series.size();
      });
  FinishTraced(ctx, largest.data.series.values(), largest.data.recommended,
               &per_layer, &clock, out);
}

// ---------------------------------------------------------------------------
// density_long: rule-density detection on two long series.

void RunDensityLong(const RunContext& ctx, WorkloadOutput* out) {
  // 500k points per series keeps a pass near 60 ms: a run then has the
  // 300 or more passes its block p90 needs.
  const size_t n = ctx.smoke ? 200'000 : 500'000;
  constexpr size_t kPlanted = 8;
  struct Inputs {
    LabeledSeries ecg;
    std::vector<double> walk;
  };
  EndToEnd e2e;
  const Inputs in = TimedSetup(ctx, &e2e, [&] {
    Inputs made{MakeLongEcg(n, kPlanted, SeedShift(ctx.seed, 0)),
                MakeRandomWalk(n, 1.0, 7)};
    Shift(&made.walk, SeedShift(ctx.seed, 1));
    return made;
  });
  const SaxOptions sax = Sax(120, 4, 4);
  DensityAnomalyOptions options;
  options.max_anomalies = kPlanted + 2;
  const std::span<const double> series[] = {in.ecg.series.values(), in.walk};

  std::vector<DensityDetection> reference;
  for (const std::span<const double> s : series) {
    StatusOr<DensityDetection> d = DetectDensityAnomalies(s, sax, options);
    Check(d.ok() && !d->anomalies.empty(),
          "density: detection reports anomalies");
    reference.push_back(d.ok() ? std::move(*d) : DensityDetection{});
  }
  std::vector<Interval> found;
  for (const DensityAnomaly& a : reference[0].anomalies) {
    found.push_back(a.span);
  }

  auto pass = [&](OpTally* tally, LayerClock* clock, LayerCounts* counts) {
    double seconds = 0.0;
    for (size_t i = 0; i < 2; ++i) {
      StatusOr<DensityDetection> d = Timed(&seconds, [&] {
        return counts != nullptr
                   ? LayeredDensity(series[i], sax, options, clock, counts)
                   : DetectDensityAnomalies(series[i], sax, options);
      });
      tally->Record(d.ok() && SameDensity(*d, reference[i]));
    }
    return seconds;
  };
  PerLayer per_layer;
  LayerClock clock;
  MeasureBatch(ctx, 2.0 * static_cast<double>(n), pass, &e2e, &per_layer,
               &clock, &out->tally);
  per_layer.hit_rate = Recall(found, in.ecg.anomalies, sax.window);
  std::printf("ecg recall: %.3f over %zu planted beats\n", per_layer.hit_rate,
              in.ecg.anomalies.size());
  if (!ctx.traced) {
    e2e.peak_rss_mib = PeakRssMib();
    EmitEndToEnd(e2e, &out->metrics);
    return;
  }
  FinishTraced(ctx, series[0], sax, &per_layer, &clock, out);
}

// ---------------------------------------------------------------------------
// stream_ingest: StreamingAnomalyMonitor over a long sine.

void RunStreamIngest(const RunContext& ctx, WorkloadOutput* out) {
  const size_t horizon = ctx.smoke ? 8000 : 16000;
  const size_t n = ctx.smoke ? 12 * horizon : 250 * horizon;
  StreamingOptions options;
  options.sax = Sax(100, 5, 4);
  options.density.threshold_fraction = 0.05;
  options.horizon = horizon;

  EndToEnd e2e;
  // Set-up: the input series and a monitor (created and dropped, so that
  // work moved into the monitor's construction counts as set-up).
  const LabeledSeries data = TimedSetup(ctx, &e2e, [&] {
    LabeledSeries made =
        MakeSineWithAnomaly(n, 80.0, 0.04, n - horizon / 2, 90, 7);
    Shift(&made.series.mutable_values(), SeedShift(ctx.seed, 0));
    (void)StreamingAnomalyMonitor::Create(options);
    return made;
  });
  const std::span<const double> series(data.series.values());

  // Checked pass: streaming == batch on the final suffix, bounded memory.
  StatusOr<StreamingAnomalyMonitor> checked =
      StreamingAnomalyMonitor::Create(options);
  if (!checked.ok()) {
    Check(false, "stream: monitor created");
    return;
  }
  size_t retained_max = 0;
  size_t failed_reports = 0;
  StatusOr<StreamingReport> reference =
      Status::FailedPrecondition("no report yet");
  for (size_t start = 0; start < n; start += horizon) {
    for (double v : series.subspan(start, horizon)) {
      checked->Push(v);
      retained_max = std::max(retained_max, checked->retained_tokens());
    }
    reference = checked->Report();
    failed_reports += reference.ok() ? 0u : 1u;
  }
  Check(failed_reports == 0, "stream: every report interval reports");
  if (!reference.ok()) {
    return;
  }
  StatusOr<DensityDetection> batch = DetectDensityAnomalies(
      series.subspan(reference->suffix_start, reference->suffix_length),
      options.sax, options.density);
  Check(batch.ok() && SameDensity(reference->detection, *batch),
        "stream: final report equals DetectDensityAnomalies on its suffix");
  Check(retained_max <= 4 * horizon,
        StrFormat("stream: retained tokens %zu <= 4*horizon %zu",
                  retained_max, 4 * horizon));
  std::vector<Interval> found;
  for (const DensityAnomaly& a : reference->detection.anomalies) {
    found.push_back(Interval{a.span.start + reference->suffix_start,
                             a.span.end + reference->suffix_start});
  }

  PerLayer per_layer;
  per_layer.hit_rate = Recall(found, data.anomalies, options.sax.window);
  per_layer.stream_retained_tokens_max = retained_max;
  per_layer.stream_evictions = checked->generations_evicted();
  std::printf("stream recall: %.3f, retained tokens max %zu\n",
              per_layer.hit_rate, retained_max);

  // One pass streams the whole series through a fresh monitor; one
  // operation is one report interval: push `horizon` samples, then Report.
  // A pass returns the seconds its operations took.
  LayerClock clock;
  auto pass = [&](LayerClock* spans, std::vector<double>* op_ms) {
    StatusOr<StreamingAnomalyMonitor> monitor =
        StreamingAnomalyMonitor::Create(options);
    if (!monitor.ok()) {
      out->tally.Record(false);
      return 0.0;
    }
    double seconds = 0.0;
    for (size_t start = 0; start < n; start += horizon) {
      double op_seconds = 0.0;
      StatusOr<StreamingReport> report = Timed(&op_seconds, [&] {
        {
          LayerSpan span(spans, Layer::kStreamPush);
          monitor->PushAll(series.subspan(start, horizon));
        }
        LayerSpan span(spans, Layer::kStreamReport);
        return monitor->Report();
      });
      seconds += op_seconds;
      if (op_ms != nullptr) {
        op_ms->push_back(op_seconds * 1e3);
      }
      const bool last = start + horizon >= n;
      out->tally.Record(
          report.ok() &&
          (!last || (report->suffix_start == reference->suffix_start &&
                     SameDensity(report->detection, reference->detection))));
    }
    return seconds;
  };
  if (!ctx.traced) {
    for (double t : TimePasses(ctx.seconds, MinPasses(ctx),
                               [&] { return pass(nullptr, &e2e.op_ms); })) {
      e2e.pts_per_s.push_back(static_cast<double>(n) / t);
    }
    e2e.peak_rss_mib = PeakRssMib();
    EmitEndToEnd(e2e, &out->metrics);
    return;
  }
  MeasureTraced(
      ctx, [&] { return pass(nullptr, nullptr); },
      [&] { return pass(&clock, nullptr); }, clock, &per_layer);
  per_layer.counts.words = n - options.sax.window + 1;
  per_layer.counts.tokens = reference->detection.decomposition.records.size();
  per_layer.counts.rules =
      reference->detection.decomposition.grammar.grammar.size();
  per_layer.counts.intervals =
      reference->detection.decomposition.intervals.size();
  FinishTraced(ctx, series, options.sax, &per_layer, &clock, out);
}

// ---------------------------------------------------------------------------
// serverd_jobs: a closed loop of two keep-alive clients against a real
// gva_serverd child.

/// One client per daemon slot (gva_serverd's default is 2): a job never
/// waits behind another, so its latency does not hang on which jobs the
/// scheduler happened to pair, and the bench and the daemon together keep
/// at most 3 threads busy on 4 cores.
constexpr size_t kClients = 2;
constexpr auto kPollInterval = std::chrono::milliseconds(1);
constexpr double kJobDeadlineSeconds = 30.0;
const char* const kJobDetectors[] = {"density", "rra", "hotsax", "auto"};

struct JobCase {
  std::string detector;
  JobSpec spec;
  std::vector<Interval> truth;
  std::string body;      // the POST /v1/jobs request body
  std::string expected;  // the job's "result" object, as RunDetectionJob
                         // renders it
  std::vector<JobAnomaly> expected_anomalies;
  double run_s = 0.0;  // in-process RunDetectionJob wall time
};

std::vector<JobCase> MakeJobCases(size_t count, uint64_t seed) {
  std::vector<JobCase> cases(count);
  Rng rng(0x5e7d);
  for (size_t j = 0; j < count; ++j) {
    JobCase& c = cases[j];
    c.detector = kJobDetectors[j % 4];
    const size_t length = 12000 + rng.UniformInt(6001);
    EcgOptions o;
    o.num_beats = length / o.beat_length + 2;
    o.anomalous_beats = {10 + rng.UniformInt(o.num_beats - 20)};
    o.seed = 1000 + j;
    LabeledSeries ecg = MakeEcg(o);
    ecg.series.mutable_values().resize(length);
    Shift(&ecg.series.mutable_values(), SeedShift(seed, j));
    c.truth = ecg.anomalies;
    c.spec.detector = ParseJobDetector(c.detector).value();
    const bool with_config = c.detector != "auto";
    if (with_config) {
      c.spec.window = 120;
      c.spec.paa = 4;
      c.spec.alphabet = 4;
    }
    c.spec.top_k = 3;
    c.spec.num_threads = 1;
    c.spec.series = ecg.series.values();
    c.body = JobBody(c.detector, c.spec.series, with_config);
  }
  return cases;
}

std::string ResultJson(const JobOutcome& outcome) {
  JobSnapshot snapshot;
  snapshot.state = JobState::kDone;
  snapshot.outcome = outcome;
  return JobJson(snapshot).Find("result")->Dump();
}

/// Runs every case in-process through RunDetectionJob (what the daemon's
/// workers call) and records its result JSON and wall time.
void ComputeExpected(std::vector<JobCase>* cases, size_t threads) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < cases->size();
         i = next.fetch_add(1)) {
      JobCase& c = (*cases)[i];
      const Clock::time_point t0 = Clock::now();
      StatusOr<JobOutcome> outcome =
          RunDetectionJob(c.spec, c.spec.series, nullptr);
      c.run_s = SecondsSince(t0);
      if (outcome.ok()) {
        c.expected = ResultJson(*outcome);
        c.expected_anomalies = outcome->anomalies;
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

/// The layered rebuild of one job, for the traced split; returns the
/// outcome's anomalies so they can be compared with the daemon's.
StatusOr<std::vector<JobAnomaly>> LayeredJob(const JobCase& c,
                                             LayerClock* clock,
                                             LayerCounts* counts) {
  const std::span<const double> series(c.spec.series);
  const SaxOptions sax = Sax(120, 4, 4);
  std::vector<JobAnomaly> anomalies;
  switch (c.spec.detector) {
    case JobDetector::kDensity: {
      DensityAnomalyOptions options;
      options.threshold_fraction = c.spec.threshold;
      options.max_anomalies = c.spec.top_k;
      GVA_ASSIGN_OR_RETURN(DensityDetection d,
                           LayeredDensity(series, sax, options, clock, counts));
      for (const DensityAnomaly& a : d.anomalies) {
        anomalies.push_back({a.span.start, a.span.end, a.mean_density, a.rank});
      }
      return anomalies;
    }
    case JobDetector::kRra:
    case JobDetector::kHotSax: {
      DiscordResult result;
      if (c.spec.detector == JobDetector::kRra) {
        RraOptions options;
        options.sax = sax;
        options.top_k = c.spec.top_k;
        GVA_ASSIGN_OR_RETURN(RraDetection d,
                             LayeredRra(series, options, clock, counts));
        result = std::move(d.result);
      } else {
        HotSaxOptions options;
        options.sax = sax;
        options.top_k = c.spec.top_k;
        GVA_ASSIGN_OR_RETURN(result,
                             LayeredHotSax(series, options, clock, counts));
      }
      size_t rank = 0;
      for (const DiscordRecord& d : result.discords) {
        anomalies.push_back({d.position, d.position + d.length, d.distance,
                             rank++});
      }
      return anomalies;
    }
    default: {
      EnsembleOptions options;
      options.configs = AutoEnsembleGrid(series.size());
      options.anomaly.threshold_fraction = c.spec.threshold;
      options.anomaly.max_anomalies = c.spec.top_k;
      GVA_ASSIGN_OR_RETURN(LayeredEnsembleResult e,
                           LayeredEnsemble(series, options, clock, counts));
      for (const EnsembleAnomaly& a : e.anomalies) {
        anomalies.push_back({a.span.start, a.span.end, a.mean_score, a.rank});
      }
      return anomalies;
    }
  }
}

/// What the client saw of one job.
struct JobTrace {
  size_t case_index = 0;
  bool ok = false;
  bool hit = false;
  double latency_s = 0.0;  // submit sent -> done observed
  double submit_s = 0.0;   // the POST round trip
  size_t polls = 0;
};

/// One client connection's closed loop: take the next job, submit it, poll
/// it every millisecond until it finishes, compare the result, repeat.
void ClientLoop(uint16_t port, const std::vector<JobCase>& cases,
                std::atomic<size_t>* next, std::vector<JobTrace>* traces) {
  std::unique_ptr<HttpConnection> connection;
  for (size_t k = next->fetch_add(1); k < traces->size();
       k = next->fetch_add(1)) {
    JobTrace& t = (*traces)[k];
    const JobCase& c = cases[t.case_index];
    if (connection == nullptr) {
      StatusOr<std::unique_ptr<HttpConnection>> connected =
          HttpConnection::Connect(port);
      if (!connected.ok()) {
        continue;  // t.ok stays false: counted as a failed job
      }
      connection = std::move(*connected);
    }
    const Clock::time_point t0 = Clock::now();
    StatusOr<HttpReply> submitted =
        connection->Request("POST", "/v1/jobs", c.body);
    t.submit_s = SecondsSince(t0);
    StatusOr<JsonValue> accepted = submitted.ok() && submitted->status == 202
                                       ? ParseJson(submitted->body)
                                       : StatusOr<JsonValue>(Status::Internal(
                                             "job not accepted"));
    const JsonValue* id =
        accepted.ok() ? accepted->Find("id") : nullptr;
    if (id == nullptr || !id->is_number()) {
      connection.reset();
      continue;
    }
    const std::string target =
        "/v1/jobs/" + std::to_string(static_cast<uint64_t>(id->as_number()));
    while (true) {
      std::this_thread::sleep_for(kPollInterval);
      StatusOr<HttpReply> polled = connection->Request("GET", target);
      ++t.polls;
      StatusOr<JsonValue> doc = polled.ok() && polled->status == 200
                                    ? ParseJson(polled->body)
                                    : StatusOr<JsonValue>(Status::Internal(
                                          "poll failed"));
      const JsonValue* state = doc.ok() ? doc->Find("state") : nullptr;
      if (state == nullptr) {
        connection.reset();
        break;
      }
      if (state->as_string() == "queued" || state->as_string() == "running") {
        if (SecondsSince(t0) > kJobDeadlineSeconds) {
          break;  // a stuck job fails instead of hanging the run
        }
        continue;
      }
      t.latency_s = SecondsSince(t0);
      const JsonValue* result = doc->Find("result");
      t.ok = state->as_string() == "done" && result != nullptr &&
             result->Dump() == c.expected;
      if (t.ok && !c.expected_anomalies.empty()) {
        const JobAnomaly& top = c.expected_anomalies[0];
        t.hit = HitsAnyTruth(Interval{top.start, top.end}, c.truth, 120);
      }
      break;
    }
  }
}

/// Value of one Prometheus sample line, or -1 when absent.
double ScrapeValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = ("\n" + text).find(key);
  return at == std::string::npos
             ? -1.0
             : std::strtod(text.c_str() + at + key.size() - 1, nullptr);
}

struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  double scraped_completed = 0.0;  // the daemon's own completed-job count
  std::vector<JobTrace> traces;
};

/// One round: spawn a daemon, run every case through the closed loop in a
/// fixed per-round order, check the daemon's own job counters, shut it down.
/// The order does not depend on the seed: which jobs share the two slots
/// moves the median latency by a few percent.
RoundResult RunRound(const RunContext& ctx, const std::vector<JobCase>& cases,
                     uint64_t round) {
  RoundResult r;
  const Clock::time_point spawn = Clock::now();
  StatusOr<std::unique_ptr<ServerdProcess>> daemon =
      ServerdProcess::Spawn(ctx.serverd_path);
  if (!daemon.ok()) {
    Check(false, "serverd: " + daemon.status().ToString());
    return r;
  }
  const uint16_t port = (*daemon)->port();
  {
    StatusOr<std::unique_ptr<HttpConnection>> probe =
        HttpConnection::Connect(port);
    StatusOr<HttpReply> health =
        probe.ok() ? (*probe)->Request("GET", "/healthz")
                   : StatusOr<HttpReply>(probe.status());
    Check(health.ok() && health->status == 200, "serverd: /healthz 200");
  }
  r.setup_s = SecondsSince(spawn);

  std::vector<size_t> order(cases.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng rng(0x0bde + round);
  rng.Shuffle(order);
  r.traces.resize(cases.size());
  for (size_t k = 0; k < order.size(); ++k) {
    r.traces[k].case_index = order[k];
  }
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, port, std::cref(cases), &next,
                           &r.traces);
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  r.wall_s = SecondsSince(start);

  size_t done = 0;
  for (const JobTrace& t : r.traces) {
    done += t.ok ? 1 : 0;
  }
  StatusOr<std::unique_ptr<HttpConnection>> scraper =
      HttpConnection::Connect(port);
  StatusOr<HttpReply> metrics =
      scraper.ok() ? (*scraper)->Request("GET", "/metrics")
                   : StatusOr<HttpReply>(scraper.status());
  const std::string text = metrics.ok() ? metrics->body : std::string();
  r.scraped_completed = ScrapeValue(text, "gva_server_jobs_completed_total");
  Check(ScrapeValue(text, "gva_server_jobs_accepted_total") ==
                static_cast<double>(cases.size()) &&
            r.scraped_completed == static_cast<double>(done) &&
            ScrapeValue(text, "gva_server_jobs_rejected_total") <= 0.0,
        StrFormat("serverd round %llu: /metrics job counters match the "
                  "client (%zu accepted, %zu completed, 0 rejected)",
                  static_cast<unsigned long long>(round), cases.size(), done));
  StatusOr<double> rss = (*daemon)->Shutdown();
  Check(rss.ok(), "serverd: clean shutdown");
  r.peak_rss_mib = rss.ok() ? *rss : 0.0;
  return r;
}

void RunServerdJobs(const RunContext& ctx, WorkloadOutput* out) {
  const size_t count = ctx.smoke ? 20 : 100;
  std::vector<JobCase> cases = MakeJobCases(count, ctx.seed);
  double points = 0.0;
  for (const JobCase& c : cases) {
    points += static_cast<double>(c.spec.series.size());
  }
  // Reference results, before anything is timed. The traced run computes
  // them on one thread so their wall times are comparable to the daemon's
  // single-threaded jobs.
  ComputeExpected(&cases, ctx.traced ? 1 : kReferenceThreads);
  Check(std::all_of(cases.begin(), cases.end(),
                    [](const JobCase& c) { return !c.expected.empty(); }),
        "serverd: in-process RunDetectionJob succeeds for every job");

  EndToEnd e2e;
  std::vector<RoundResult> rounds;
  const double budget = ctx.traced ? ctx.seconds * kTracedPhaseShare
                                   : ctx.seconds;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < MinPasses(ctx) || SecondsSince(start) < budget) {
    rounds.push_back(RunRound(ctx, cases, rounds.size()));
    const RoundResult& r = rounds.back();
    if (r.traces.empty()) {
      return;  // the daemon did not start; already a failed CHECK
    }
    e2e.setup_s.push_back(r.setup_s);
    e2e.pts_per_s.push_back(points / r.wall_s);
    e2e.peak_rss_mib = std::max(e2e.peak_rss_mib, r.peak_rss_mib);
    for (const JobTrace& t : r.traces) {
      out->tally.Record(t.ok);
      e2e.op_ms.push_back(t.latency_s * 1e3);
    }
  }
  size_t hits = 0;
  for (const JobTrace& t : rounds.back().traces) {
    hits += t.hit ? 1 : 0;
  }
  PerLayer per_layer;
  per_layer.hit_rate = Ratio(static_cast<double>(hits),
                             static_cast<double>(count));
  std::printf("serverd: %zu rounds of %zu jobs, top anomaly hits %zu\n",
              rounds.size(), count, hits);
  if (!ctx.traced) {
    EmitEndToEnd(e2e, &out->metrics);
    return;
  }

  // Per-layer split of a job's client-observed latency: the in-process
  // layered rebuild of every case, against the latency each case saw.
  LayerClock clock;
  double layered_s = 0.0;
  double run_s = 0.0;
  for (const JobCase& c : cases) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::vector<JobAnomaly>> anomalies =
        LayeredJob(c, &clock, &per_layer.counts);
    layered_s += SecondsSince(t0);
    run_s += c.run_s;
    bool same = anomalies.ok() &&
                anomalies->size() == c.expected_anomalies.size();
    for (size_t i = 0; same && i < anomalies->size(); ++i) {
      const JobAnomaly& a = (*anomalies)[i];
      const JobAnomaly& b = c.expected_anomalies[i];
      same = a.start == b.start && a.end == b.end && a.score == b.score &&
             a.rank == b.rank;
    }
    out->tally.Record(same);
  }
  double latency_s = 0.0;
  double submit_s = 0.0;
  double polls = 0.0;
  std::map<std::string, double> latency_by_detector;
  std::map<std::string, double> run_by_detector;
  for (const RoundResult& r : rounds) {
    for (const JobTrace& t : r.traces) {
      const JobCase& c = cases[t.case_index];
      latency_s += t.latency_s;
      submit_s += t.submit_s;
      polls += static_cast<double>(t.polls);
      latency_by_detector[c.detector] += t.latency_s;
      run_by_detector[c.detector] += c.run_s;
    }
  }
  const double per_round = static_cast<double>(rounds.size());
  const double jobs = per_round * static_cast<double>(count);
  clock.seconds(Layer::kServer) = latency_s / per_round - run_s;
  SetShares(clock, latency_s / per_round, &per_layer);
  per_layer.samples = rounds.size();
  per_layer.trace_overhead_frac = layered_s / run_s - 1.0;
  per_layer.server_polls_per_job = polls / jobs;
  double body_bytes = 0.0;
  for (const JobCase& c : cases) {
    body_bytes += static_cast<double>(c.body.size());
  }
  per_layer.server_request_kib =
      body_bytes / static_cast<double>(count) / 1024.0;
  per_layer.server_submit_share = Ratio(submit_s, latency_s);
  per_layer.server_jobs_completed = rounds.back().scraped_completed;
  for (auto& [detector, share] : per_layer.server_run_share) {
    share = Ratio(run_by_detector[detector], latency_by_detector[detector]);
  }
  FinishTraced(ctx, cases[0].spec.series, Sax(120, 4, 4), &per_layer, &clock,
               out);
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"table1_rra",
       "RRA~ (the paper's interval-aligned search) on the 14 Table-1 rows: "
       "SAX, Sequitur and the discord search",
       RunTable1Rra},
      {"density_long",
       "rule density on 500k-point ECG and random walk: SAX and Sequitur "
       "only, no discord search",
       RunDensityLong},
      {"stream_ingest",
       "StreamingAnomalyMonitor over a 4M-sample sine, horizon 16k, a "
       "report every 16k samples",
       RunStreamIngest},
      {"serverd_jobs",
       "two closed-loop clients submitting ECG jobs to gva_serverd: HTTP, "
       "JSON and the job runner on top of the detectors",
       RunServerdJobs},
  };
  return kWorkloads;
}

}  // namespace gva::bench
