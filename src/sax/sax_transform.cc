#include "sax/sax_transform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "backend/backend.h"
#include "obs/trace.h"
#include "sax/paa.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/sliding_window.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

Status SaxOptions::Validate() const {
  if (window < 2) {
    return Status::InvalidArgument(
        StrFormat("window must be >= 2, got %zu", window));
  }
  if (paa_size < 1) {
    return Status::InvalidArgument("paa_size must be >= 1");
  }
  if (paa_size > window) {
    return Status::InvalidArgument(
        StrFormat("paa_size (%zu) must not exceed window (%zu)", paa_size,
                  window));
  }
  if (alphabet_size < kMinAlphabetSize || alphabet_size > kMaxAlphabetSize) {
    return Status::InvalidArgument(
        StrFormat("alphabet_size (%zu) outside [%zu, %zu]", alphabet_size,
                  kMinAlphabetSize, kMaxAlphabetSize));
  }
  if (znorm_epsilon < 0.0) {
    return Status::InvalidArgument("znorm_epsilon must be non-negative");
  }
  return Status::Ok();
}

std::string SaxWordForWindow(std::span<const double> window,
                             const SaxOptions& opts,
                             const NormalAlphabet& alphabet) {
  thread_local std::vector<double> normalized;
  thread_local std::vector<double> paa;
  ZNormalize(window, normalized, opts.znorm_epsilon);
  Paa(normalized, opts.paa_size, paa);
  std::string word(opts.paa_size, 'a');
  for (size_t i = 0; i < paa.size(); ++i) {
    word[i] = alphabet.LetterOf(paa[i]);
  }
  return word;
}

namespace {

constexpr double kMachEps = std::numeric_limits<double>::epsilon();

/// Validates `opts` and that `series` holds at least one window.
Status ValidateSeries(std::span<const double> series, const SaxOptions& opts) {
  GVA_RETURN_IF_ERROR(opts.Validate());
  if (series.size() < opts.window) {
    return Status::InvalidArgument(
        StrFormat("series length %zu shorter than window %zu", series.size(),
                  opts.window));
  }
  return Status::Ok();
}

/// Maps a row of z-space PAA values to letters under `alphabet`, guarding
/// each value against the breakpoints adjacent to its chosen region: the
/// reference path's value differs from z[j] by at most err[j], so a value
/// that close to a cut could land on the other side there. Returns false
/// when any guard fires (caller must use the reference path). Called only
/// by SaxWord, so every entry point makes the same letter decisions.
bool MapLettersFromZ(const double* z, const double* err, size_t paa,
                     const NormalAlphabet& alphabet, std::string& word) {
  const auto& cuts = alphabet.breakpoints();
  for (size_t j = 0; j < paa; ++j) {
    const size_t idx = alphabet.IndexOf(z[j]);
    if (idx > 0 && z[j] - cuts[idx - 1] <= err[j]) {
      return false;
    }
    if (idx < cuts.size() && cuts[idx] - z[j] <= err[j]) {
      return false;
    }
    word[j] = NormalAlphabet::IndexFor('a', idx);
  }
  return true;
}

/// Weighted raw-value sum of the fractional segment `seg` of the window at
/// `pos`, mirroring the exact-PAA overlap weights of Paa(). `*err` receives
/// a bound on the sum's divergence from naive summation, built from the
/// prefix endpoints and boundary samples actually used. `Source` abstracts
/// where the samples and prefix sums live (a materialized span + RollingStats
/// for the batch kernels, bounded rings for the online one).
template <typename Source>
double FractionalSegmentSum(const Source& src, size_t pos,
                            const SaxPaaGeometry::Segment& seg, double* err) {
  const double x_first = src.Sample(pos + seg.first);
  // Segment contained in a single sample.
  if (seg.last <= seg.first) {
    *err = 4.0 * kMachEps * std::abs(x_first);
    return (seg.hi - seg.lo) * x_first;
  }
  const double first_end = std::min(seg.hi, static_cast<double>(seg.first + 1));
  double sum = (first_end - seg.lo) * x_first;
  double bound = 4.0 * kMachEps * std::abs(x_first);
  const size_t full_begin = seg.first + 1;
  if (seg.last > full_begin) {
    sum += src.Sum(pos + full_begin, seg.last - full_begin);
    bound += src.RangeSumErrorBound(pos + full_begin, seg.last - full_begin);
  }
  const double frac = seg.hi - static_cast<double>(seg.last);
  if (frac > 0.0) {
    const double x_last = src.Sample(pos + seg.last);
    sum += frac * x_last;
    bound += 4.0 * kMachEps * std::abs(x_last);
  }
  *err = bound;
  return sum;
}

/// The alphabet-independent half of the word function: computes the z-space
/// PAA values and conservative error bounds of the window at `pos` into
/// z[0..paa) / err[0..paa). Every z-row — Discretize's, a SaxZPlane row,
/// the online ring's — comes from here, so their guard decisions and z
/// values use the same arithmetic. Returns false when the window's mean or
/// variance is not finite or the flat-window decision falls inside its
/// numerical guard (the caller must use the reference path).
template <typename Source>
bool ZRowFromSource(const Source& src, const SaxPaaGeometry& g,
                    double znorm_epsilon, size_t pos, double* z, double* err) {
  const double n = static_cast<double>(g.window);
  const double mean = src.Sum(pos, g.window) / n;
  double variance = src.SumSq(pos, g.window) / n - mean * mean;
  // One non-finite sample poisons every later prefix sum, and NaN passes
  // every guard below (all its comparisons are false), so such windows go
  // to the reference path, which reads the samples themselves.
  if (!std::isfinite(mean) || !std::isfinite(variance)) {
    return false;
  }
  if (variance < 0.0) {  // numerical noise on near-constant ranges
    variance = 0.0;
  }
  const double sd = std::sqrt(variance);

  // Error bounds for the prefix-derived window statistics versus the
  // reference's naive summation.
  const double mean_err = src.RangeSumErrorBound(pos, g.window) / n;
  const double var_err = src.RangeSumSqErrorBound(pos, g.window) / n +
                         (2.0 * std::abs(mean) + mean_err) * mean_err;
  const double sd_err = variance > var_err ? var_err / sd : std::sqrt(var_err);

  // Guard the flat-window decision itself.
  if (std::abs(sd - znorm_epsilon) <= sd_err) {
    return false;
  }
  const bool flat = sd < znorm_epsilon;
  const double inv = flat ? 1.0 : 1.0 / sd;
  // Relative error of `inv`, as an absolute error per unit of |z|.
  const double inv_rel_err = flat ? 0.0 : sd_err * inv;

  // Segment-sum batching: when the source exposes the backend seam (a
  // contiguous prefix table), the divisible equal-step case hands all
  // `paa` range sums to the active backend's PaaSegmentSums kernel in one
  // call. Each output is the identical single prefix subtraction
  // src.Sum() performs, so the batched and per-segment paths are
  // bit-identical and the guard decisions are unaffected by dispatch. The
  // online ring source has no contiguous prefix and keeps the generic
  // path.
  constexpr size_t kMaxBatchedPaa = 64;
  double seg_sums[kMaxBatchedPaa];
  bool batched = false;
  if constexpr (requires { src.SegmentSums(pos, g.paa, g.step, seg_sums); }) {
    if (g.divisible && g.step > 1 && g.paa <= kMaxBatchedPaa) {
      src.SegmentSums(pos, g.paa, g.step, seg_sums);
      batched = true;
    }
  }

  for (size_t j = 0; j < g.paa; ++j) {
    double seg_mean;
    double seg_err;
    if (g.divisible) {
      if (g.step == 1) {
        seg_mean = src.Sample(pos + j);
        seg_err = 0.0;
      } else {
        const size_t seg_pos = pos + j * g.step;
        seg_mean = (batched ? seg_sums[j] : src.Sum(seg_pos, g.step)) /
                   static_cast<double>(g.step);
        seg_err = src.RangeSumErrorBound(seg_pos, g.step) /
                  static_cast<double>(g.step);
      }
    } else {
      const SaxPaaGeometry::Segment& seg = g.segments[j];
      double sum_err = 0.0;
      seg_mean = FractionalSegmentSum(src, pos, seg, &sum_err) /
                 (seg.hi - seg.lo);
      seg_err = sum_err / (seg.hi - seg.lo);
    }
    // The last term covers the reference path's own rounding: it sums up
    // to `window` z-space values per segment, each O(|z|).
    z[j] = (seg_mean - mean) * inv;
    err[j] = (seg_err + mean_err) * inv + std::abs(z[j]) * inv_rel_err +
             (16.0 + static_cast<double>(g.window)) * kMachEps *
                 (1.0 + std::abs(z[j]));
  }
  return true;
}

/// Source over a materialized series backed by RollingStats prefix sums.
/// Exposes the backend seam (SegmentSums) so the z-row kernel can batch
/// the divisible-case PAA sums through the dispatched kernel.
struct SpanSource {
  std::span<const double> series;
  const RollingStats* stats;
  const backend::KernelBackend* backend;

  double Sample(size_t i) const { return series[i]; }
  void SegmentSums(size_t pos, size_t count, size_t step, double* out) const {
    backend->paa_segment_sums(stats->PrefixSums().data() + pos, count, step,
                              out);
  }
  double Sum(size_t pos, size_t len) const { return stats->Sum(pos, len); }
  double SumSq(size_t pos, size_t len) const { return stats->SumSq(pos, len); }
  double RangeSumErrorBound(size_t pos, size_t len) const {
    return stats->RangeSumErrorBound(pos, len);
  }
  double RangeSumSqErrorBound(size_t pos, size_t len) const {
    return stats->RangeSumSqErrorBound(pos, len);
  }
};

/// Source over the online rings: sample i of the stream lives at
/// ring[i % window], prefix value P(i) at psum[i % (window + 1)]. Valid only
/// for indices inside the currently retained window, which is all the
/// geometry ever asks for. The error bounds reuse RollingStats' formula
/// (kRangeSumErrFactor over the larger prefix endpoint) so both layers
/// guard identically.
struct RingSource {
  const std::vector<double>* ring;
  const std::vector<double>* psum;
  const std::vector<double>* psumsq;
  size_t window;

  double Sample(size_t i) const { return (*ring)[i % window]; }
  double PrefixAt(const std::vector<double>& p, size_t i) const {
    return p[i % (window + 1)];
  }
  double Sum(size_t pos, size_t len) const {
    return PrefixAt(*psum, pos + len) - PrefixAt(*psum, pos);
  }
  double SumSq(size_t pos, size_t len) const {
    return PrefixAt(*psumsq, pos + len) - PrefixAt(*psumsq, pos);
  }
  double RangeSumErrorBound(size_t pos, size_t len) const {
    const double lo = std::abs(PrefixAt(*psum, pos));
    const double hi = std::abs(PrefixAt(*psum, pos + len));
    return kRangeSumErrFactor * std::max({1.0, lo, hi});
  }
  double RangeSumSqErrorBound(size_t pos, size_t len) const {
    const double lo = PrefixAt(*psumsq, pos);
    const double hi = PrefixAt(*psumsq, pos + len);
    return kRangeSumErrFactor * std::max({1.0, lo, hi});
  }
};

/// The one SAX word function. `z`/`err` hold the window's z-row and
/// `row_ok` says whether its stats guard held (ZRowFromSource's return, or
/// !SaxZPlane::fallback[row]). Writes MapLettersFromZ's letters when the
/// row and every letter guard hold, and otherwise the reference
/// SaxWordForWindow over `window()`, which materializes the window only
/// then. Returns false when the reference computed the word.
template <typename Window>
bool SaxWord(bool row_ok, const double* z, const double* err,
             const SaxOptions& opts, const NormalAlphabet& alphabet,
             const Window& window, std::string& word) {
  if (row_ok && MapLettersFromZ(z, err, opts.paa_size, alphabet, word)) {
    return true;
  }
  word = SaxWordForWindow(window(), opts, alphabet);
  return false;
}

/// The records loop of the batch entry points: `word_at(pos, word)` writes
/// the word of the window at `pos` into one reused buffer, and only the
/// words KeepWord keeps are copied into the records.
template <typename WordAt>
SaxRecords CollectRecords(size_t windows, const SaxOptions& opts,
                          NumerosityReduction numerosity,
                          const NormalAlphabet& alphabet,
                          const WordAt& word_at) {
  SaxRecords records;
  records.words.reserve(windows);
  records.offsets.reserve(windows);
  std::string word(opts.paa_size, 'a');
  for (size_t pos = 0; pos < windows; ++pos) {
    word_at(pos, word);
    if (KeepWord(records.words, word, numerosity, alphabet)) {
      records.words.push_back(word);
      records.offsets.push_back(pos);
    }
  }
  return records;
}

StatusOr<SaxRecords> DiscretizeImpl(std::span<const double> series,
                                    const SaxOptions& opts,
                                    NumerosityReduction numerosity) {
  GVA_RETURN_IF_ERROR(ValidateSeries(series, opts));
  const NormalAlphabet alphabet(opts.alphabet_size);
  const SaxPaaGeometry geometry(opts);
  // The rolling-moment (z-norm) table first, then the word extraction
  // proper: separate spans let a trace show where discretization time
  // actually goes.
  const RollingStats stats = [&] {
    GVA_OBS_SPAN("sax.znorm_stats");
    return RollingStats(series);
  }();
  GVA_OBS_SPAN("sax.words");
  const SpanSource src{series, &stats, &backend::ActiveBackend()};
  std::vector<double> z(opts.paa_size);
  std::vector<double> err(opts.paa_size);
  return CollectRecords(
      NumSlidingWindows(series.size(), opts.window), opts, numerosity,
      alphabet, [&](size_t pos, std::string& word) {
        const bool row_ok = ZRowFromSource(src, geometry, opts.znorm_epsilon,
                                           pos, z.data(), err.data());
        SaxWord(row_ok, z.data(), err.data(), opts, alphabet,
                [&] { return WindowAt(series, pos, opts.window); }, word);
      });
}

}  // namespace

SaxPaaGeometry::SaxPaaGeometry(const SaxOptions& opts)
    : window(opts.window),
      paa(opts.paa_size),
      divisible(opts.window % opts.paa_size == 0),
      step(opts.window / opts.paa_size) {
  if (!divisible) {
    const double dn = static_cast<double>(window);
    const double w = static_cast<double>(paa);
    segments.reserve(paa);
    for (size_t j = 0; j < paa; ++j) {
      Segment seg;
      seg.lo = static_cast<double>(j) * dn / w;
      seg.hi = static_cast<double>(j + 1) * dn / w;
      seg.first = static_cast<size_t>(std::floor(seg.lo));
      seg.last = static_cast<size_t>(std::floor(seg.hi));
      segments.push_back(seg);
    }
  }
}

OnlineSaxDiscretizer::OnlineSaxDiscretizer(const SaxOptions& opts)
    : opts_(opts),
      alphabet_(opts.alphabet_size),
      geometry_(opts),
      // Rebasing every 8 windows keeps the prefix magnitudes — and with
      // them the guard bounds — proportional to one window of data, at an
      // amortized rebuild cost of 1/8 of a sample per push.
      rebase_period_(8 * opts.window),
      ring_(opts.window, 0.0),
      psum_(opts.window + 1, 0.0),
      psumsq_(opts.window + 1, 0.0),
      scratch_(opts.window, 0.0),
      zrow_(opts.paa_size, 0.0),
      zerr_(opts.paa_size, 0.0) {}

bool OnlineSaxDiscretizer::Push(double value, std::string& word, size_t* pos) {
  const size_t w = opts_.window;
  const size_t m = w + 1;
  if (pushed_ >= w && pushed_ % rebase_period_ == 0) {
    // Rebase: rebuild the retained prefix entries from the ring so prefix
    // magnitudes restart from zero. Which window values the fast path sees
    // changes only within the guard bounds, so emitted words — always
    // byte-identical to the reference — do not depend on the rebase
    // schedule.
    const size_t base = pushed_ - w;
    psum_[base % m] = 0.0;
    psumsq_[base % m] = 0.0;
    for (size_t i = base; i < pushed_; ++i) {
      const double v = ring_[i % w];
      psum_[(i + 1) % m] = psum_[i % m] + v;
      psumsq_[(i + 1) % m] = psumsq_[i % m] + v * v;
    }
  }
  const size_t t = pushed_;
  ring_[t % w] = value;
  psum_[(t + 1) % m] = psum_[t % m] + value;
  psumsq_[(t + 1) % m] = psumsq_[t % m] + value * value;
  ++pushed_;
  if (pushed_ < w) {
    return false;
  }
  const size_t at = pushed_ - w;
  *pos = at;
  word.resize(opts_.paa_size);
  const RingSource src{&ring_, &psum_, &psumsq_, w};
  const bool row_ok = ZRowFromSource(src, geometry_, opts_.znorm_epsilon, at,
                                     zrow_.data(), zerr_.data());
  // The reference path reads the window materialized from the ring: the w
  // consecutive stream indices [at, at + w) occupy each ring slot once.
  const auto window = [&] {
    for (size_t i = 0; i < w; ++i) {
      scratch_[i] = ring_[(at + i) % w];
    }
    return std::span<const double>(scratch_);
  };
  if (!SaxWord(row_ok, zrow_.data(), zerr_.data(), opts_, alphabet_, window,
               word)) {
    ++fallback_words_;
  }
  return true;
}

StatusOr<SaxRecords> Discretize(std::span<const double> series,
                                const SaxOptions& opts) {
  return DiscretizeImpl(series, opts, opts.numerosity);
}

StatusOr<SaxRecords> DiscretizeAllWindows(std::span<const double> series,
                                          const SaxOptions& opts) {
  return DiscretizeImpl(series, opts, NumerosityReduction::kNone);
}

StatusOr<SaxZPlane> ComputeSaxZPlane(std::span<const double> series,
                                     const SaxOptions& opts,
                                     const RollingStats* shared_stats,
                                     ThreadPool* pool) {
  GVA_RETURN_IF_ERROR(ValidateSeries(series, opts));
  if (shared_stats != nullptr && shared_stats->size() != series.size()) {
    return Status::InvalidArgument(
        StrFormat("shared RollingStats covers %zu points, series has %zu",
                  shared_stats->size(), series.size()));
  }
  GVA_OBS_SPAN("sax.zplane");
  std::optional<RollingStats> owned_stats;
  if (shared_stats == nullptr) {
    owned_stats.emplace(series);
  }
  const SpanSource src{series,
                       shared_stats != nullptr ? shared_stats : &*owned_stats,
                       &backend::ActiveBackend()};
  const SaxPaaGeometry geometry(opts);
  SaxZPlane plane;
  plane.window = opts.window;
  plane.paa_size = opts.paa_size;
  plane.znorm_epsilon = opts.znorm_epsilon;
  plane.positions = NumSlidingWindows(series.size(), opts.window);
  plane.z.resize(plane.positions * plane.paa_size);
  plane.z_err.resize(plane.positions * plane.paa_size);
  plane.fallback.assign(plane.positions, 0);
  const auto rows = [&](size_t row_begin, size_t row_end, size_t /*chunk*/) {
    for (size_t pos = row_begin; pos < row_end; ++pos) {
      const size_t at = pos * plane.paa_size;
      if (!ZRowFromSource(src, geometry, opts.znorm_epsilon, pos,
                          plane.z.data() + at, plane.z_err.data() + at)) {
        plane.fallback[pos] = 1;
      }
    }
  };
  if (pool != nullptr) {
    // Rows are independent pure functions of the prefix sums, so the plane
    // is bit-identical for every thread count.
    pool->ParallelFor(0, plane.positions, rows);
  } else {
    rows(0, plane.positions, 0);
  }
  for (const uint8_t f : plane.fallback) {
    plane.fallback_rows += f;
  }
  return plane;
}

StatusOr<SaxRecords> DiscretizeWithZPlane(std::span<const double> series,
                                          const SaxOptions& opts,
                                          const SaxZPlane& plane) {
  GVA_RETURN_IF_ERROR(ValidateSeries(series, opts));
  const size_t windows = NumSlidingWindows(series.size(), opts.window);
  if (!plane.Matches(opts) || plane.positions != windows) {
    return Status::InvalidArgument(StrFormat(
        "z-plane geometry (w=%zu paa=%zu eps=%g rows=%zu) does not match "
        "options (w=%zu paa=%zu eps=%g rows=%zu)",
        plane.window, plane.paa_size, plane.znorm_epsilon, plane.positions,
        opts.window, opts.paa_size, opts.znorm_epsilon, windows));
  }
  GVA_OBS_SPAN("sax.words");
  const NormalAlphabet alphabet(opts.alphabet_size);
  return CollectRecords(
      windows, opts, opts.numerosity, alphabet,
      [&](size_t pos, std::string& word) {
        const size_t at = pos * plane.paa_size;
        SaxWord(plane.fallback[pos] == 0, plane.z.data() + at,
                plane.z_err.data() + at, opts, alphabet,
                [&] { return WindowAt(series, pos, opts.window); }, word);
      });
}

}  // namespace gva
