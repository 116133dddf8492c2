#include "sax/sax_transform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

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
  // Written as a negated membership test so NaN fails it too.
  if (!(znorm_epsilon >= 0.0 &&
        znorm_epsilon <= std::numeric_limits<double>::max())) {
    return Status::InvalidArgument(
        "znorm_epsilon must be finite and non-negative");
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

/// Samples and prefix sums of a materialized series (RollingStats' arrays).
/// Every member is inline, so the kernel's loops make no call.
struct SpanSource {
  const double* samples;
  const double* prefix;
  const double* prefix_sq;

  double Sample(size_t i) const { return samples[i]; }
  double Prefix(size_t i) const { return prefix[i]; }
  double PrefixSq(size_t i) const { return prefix_sq[i]; }
};

/// Samples and prefix sums of the online rings: sample i of the stream
/// lives at ring[i % window], prefix value P(i) at psum[i % (window + 1)].
/// Valid only for the window that starts at stream index `at`, which is all
/// the kernel ever asks for, so each slot is found from the window's own
/// first slots by one add and one wrap instead of a division per access.
struct RingSource {
  const double* ring;
  const double* psum;
  const double* psumsq;
  size_t window;
  size_t at;
  size_t at_sample;  // at % window
  size_t at_prefix;  // at % (window + 1)

  double Sample(size_t i) const {
    const size_t slot = at_sample + (i - at);
    return ring[slot < window ? slot : slot - window];
  }
  double PrefixAt(const double* p, size_t i) const {
    const size_t slot = at_prefix + (i - at);
    return p[slot <= window ? slot : slot - (window + 1)];
  }
  double Prefix(size_t i) const { return PrefixAt(psum, i); }
  double PrefixSq(size_t i) const { return PrefixAt(psumsq, i); }
};

/// Sum over [pos, pos + len) from `src`'s prefix sums, and the bound on its
/// divergence from naive summation (RollingStats' formula, so every source
/// guards identically).
template <typename Source>
double RangeSum(Source src, size_t pos, size_t len) {
  return src.Prefix(pos + len) - src.Prefix(pos);
}
template <typename Source>
double RangeSumError(Source src, size_t pos, size_t len) {
  return PrefixRangeErrorBound(std::abs(src.Prefix(pos)),
                               std::abs(src.Prefix(pos + len)));
}

/// Weighted raw-value sum of the fractional segment `seg` of the window at
/// `pos`, mirroring the exact-PAA overlap weights of Paa(). `*err` receives
/// a bound on the sum's divergence from naive summation, built from the
/// prefix endpoints and boundary samples actually used.
template <typename Source>
double FractionalSegmentSum(Source src, size_t pos,
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
    sum += RangeSum(src, pos + full_begin, seg.last - full_begin);
    bound += RangeSumError(src, pos + full_begin, seg.last - full_begin);
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

/// Where stage (a) left the segment means: segment j of block window i is
/// at index i + j * stride of `mean` and `err`.
struct Segments {
  const double* mean;
  const double* err;
  size_t stride;
};

/// Stage (a): the PAA segment means, and their error bounds, that the
/// windows [pos, pos + count) read. When paa_size divides the window,
/// segment j of the window at p is the segment at position p + j * step,
/// so consecutive windows share segments: index p of the output holds the
/// segment at pos + p, and a block computes each position it reads once.
/// A block of one window (the online discretizer's) computes just its own
/// paa segments. The step == 1 segment is the exact sample, with no error.
/// A fractional geometry computes each window's segments on their own.
template <typename Source>
Segments SegmentMeans(Source src, const SaxPaaGeometry& g, size_t pos,
                      size_t count, SaxBlockScratch& block) {
  double* mean = block.seg_mean.data();
  double* err = block.seg_err.data();
  if (!g.divisible) {
    for (size_t j = 0; j < g.paa; ++j) {
      const SaxPaaGeometry::Segment& seg = g.segments[j];
      const double width = seg.hi - seg.lo;
      for (size_t i = 0; i < count; ++i) {
        double sum_err = 0.0;
        mean[j * count + i] =
            FractionalSegmentSum(src, pos + i, seg, &sum_err) / width;
        err[j * count + i] = sum_err / width;
      }
    }
    return {mean, err, count};
  }
  if (g.step == 1) {
    for (size_t p = 0; p < count + g.paa - 1; ++p) {
      mean[p] = src.Sample(pos + p);
      err[p] = 0.0;
    }
    return {mean, err, 1};
  }
  const double step = static_cast<double>(g.step);
  const size_t stride = count == 1 ? g.step : 1;
  const size_t segments = count == 1 ? g.paa : count + (g.paa - 1) * g.step;
  for (size_t k = 0; k < segments; ++k) {
    const size_t p = k * stride;
    mean[p] = RangeSum(src, pos + p, g.step) / step;
    err[p] = RangeSumError(src, pos + p, g.step) / step;
  }
  return {mean, err, g.step};
}

/// Stage (b): each window's mean, standard deviation and their error
/// bounds versus the reference's naive summation, for windows
/// [pos, pos + count). fallback[i] is set to 1 when the window's mean or
/// variance is not finite — one non-finite sample poisons every later
/// prefix sum, and NaN passes every later guard (all its comparisons are
/// false), so such windows go to the reference path, which reads the
/// samples themselves — or when the flat-window decision (sd < epsilon)
/// falls inside its bound. Flags are doubles, and the outputs are declared
/// unaliased, so that the loop vectorizes.
template <typename Source>
void WindowStats(Source src, size_t window, double znorm_epsilon, size_t pos,
                 size_t count, double* __restrict out_mean,
                 double* __restrict out_mean_err, double* __restrict out_inv,
                 double* __restrict out_inv_rel_err,
                 double* __restrict fallback) {
  const double n = static_cast<double>(window);
  for (size_t i = 0; i < count; ++i) {
    const double mean = RangeSum(src, pos + i, window) / n;
    const double raw_variance =
        (src.PrefixSq(pos + i + window) - src.PrefixSq(pos + i)) / n -
        mean * mean;
    const bool finite = std::isfinite(mean) & std::isfinite(raw_variance);
    // Clamp numerical noise on near-constant ranges.
    const double variance = raw_variance < 0.0 ? 0.0 : raw_variance;
    const double sd = std::sqrt(variance);
    const double mean_err = RangeSumError(src, pos + i, window) / n;
    const double var_err =
        PrefixRangeErrorBound(src.PrefixSq(pos + i),
                              src.PrefixSq(pos + i + window)) /
            n +
        (2.0 * std::abs(mean) + mean_err) * mean_err;
    const double sd_err =
        variance > var_err ? var_err / sd : std::sqrt(var_err);
    const bool flat = sd < znorm_epsilon;
    const double inv = flat ? 1.0 : 1.0 / sd;
    out_mean[i] = mean;
    out_mean_err[i] = mean_err;
    out_inv[i] = inv;
    // Relative error of `inv`, as an absolute error per unit of |z|.
    out_inv_rel_err[i] = flat ? 0.0 : sd_err * inv;
    fallback[i] =
        !finite | (std::abs(sd - znorm_epsilon) <= sd_err) ? 1.0 : 0.0;
  }
}

/// Stage (c): the z values of the windows' segments and their bounds, into
/// row-major rows `z` / `err` (paa values per window). The last term of the
/// bound covers the reference path's own rounding: it sums up to `window`
/// z-space values per segment, each O(|z|). The row stores are strided, so
/// the pointers are declared unaliased for the loop to vectorize.
void ZValues(const Segments& seg, const SaxPaaGeometry& g, size_t count,
             const SaxBlockScratch& block, double* __restrict z,
             double* __restrict err) {
  const double ref_err = (16.0 + static_cast<double>(g.window)) * kMachEps;
  const double* mean = block.mean.data();
  const double* mean_err = block.mean_err.data();
  const double* inv = block.inv.data();
  const double* inv_rel_err = block.inv_rel_err.data();
  for (size_t j = 0; j < g.paa; ++j) {
    const double* seg_mean = seg.mean + j * seg.stride;
    const double* seg_err = seg.err + j * seg.stride;
    for (size_t i = 0; i < count; ++i) {
      const double zv = (seg_mean[i] - mean[i]) * inv[i];
      z[i * g.paa + j] = zv;
      err[i * g.paa + j] = (seg_err[i] + mean_err[i]) * inv[i] +
                           std::abs(zv) * inv_rel_err[i] +
                           ref_err * (1.0 + std::abs(zv));
    }
  }
}

/// Stages (a)-(c) for windows [pos, pos + count): their z rows into
/// `z` / `err` and their stats guards into block.fallback. The only z-row
/// code: Discretize's blocks, a SaxZPlane's rows and the online ring's one
/// window all come from here, so they use the same arithmetic.
template <typename Source>
void ZRows(Source src, const SaxPaaGeometry& g, double znorm_epsilon,
           size_t pos, size_t count, SaxBlockScratch& block, double* z,
           double* err) {
  const Segments seg = SegmentMeans(src, g, pos, count, block);
  WindowStats(src, g.window, znorm_epsilon, pos, count, block.mean.data(),
              block.mean_err.data(), block.inv.data(),
              block.inv_rel_err.data(), block.fallback.data());
  ZValues(seg, g, count, block, z, err);
}

/// Stage (d)'s two tests of value `z` (bound `err`) against one breakpoint,
/// as doubles so that the loops summing them vectorize: whether `z` counts
/// toward the letter index (it is not below the cut, as
/// NormalAlphabet::IndexOf counts), and whether the cut lies within `err`
/// of `z`. The reference path's value differs from z by at most err, so a
/// value that close to a cut could land on the other side there.
double NotBelow(double z, double cut) { return z < cut ? 0.0 : 1.0; }
double CutWithin(double z, double err, double cut) {
  return std::abs(z - cut) <= err ? 1.0 : 0.0;
}

/// Stage (d): for each of `values` z values, its letter index into
/// block.code, the number of breakpoints within its bound into
/// block.near_cut, and its letter into `letters`. Testing every cut decides
/// as testing the two cuts next to the value does: the rounded distance to
/// a cut only grows with the cut's distance. One pass per breakpoint, the
/// first one initializing, keeps each loop vectorizable and a block of one
/// window cheap.
void Letters(const double* __restrict z, const double* __restrict err,
             size_t values, const NormalAlphabet& alphabet,
             SaxBlockScratch& block, char* __restrict letters) {
  const std::vector<double>& cuts = alphabet.breakpoints();
  double* code = block.code.data();
  double* near_cut = block.near_cut.data();
  for (size_t k = 0; k < values; ++k) {
    code[k] = NotBelow(z[k], cuts[0]);
    near_cut[k] = CutWithin(z[k], err[k], cuts[0]);
  }
  for (size_t b = 1; b < cuts.size(); ++b) {
    const double cut = cuts[b];
    for (size_t k = 0; k < values; ++k) {
      code[k] += NotBelow(z[k], cut);
      near_cut[k] += CutWithin(z[k], err[k], cut);
    }
  }
  for (size_t k = 0; k < values; ++k) {
    letters[k] = static_cast<char>('a' + static_cast<int>(code[k]));
  }
}

/// Whether block window i's word is its stage (d) letters: neither its
/// stats guard (`fallback`) nor a letter guard fired. Otherwise the word is
/// the reference SaxWordForWindow over the window.
bool LettersHold(size_t i, bool fallback, const SaxBlockScratch& block,
                 size_t paa) {
  const double* near_cut = block.near_cut.data() + i * paa;
  bool fired = fallback;
  for (size_t j = 0; j < paa; ++j) {
    fired |= near_cut[j] != 0.0;
  }
  return !fired;
}

/// The records loop of the batch entry points over one block of `count`
/// windows from `pos` whose stage (d) is done, with window i's stats guard
/// in fallback[i]: only the words KeepWord keeps become a std::string in
/// the records.
template <typename Flag>
void AppendBlockRecords(std::span<const double> series, size_t pos,
                        size_t count, const Flag* fallback,
                        const SaxBlockScratch& block, const SaxOptions& opts,
                        NumerosityReduction numerosity,
                        const NormalAlphabet& alphabet, SaxRecords& records) {
  const size_t paa = opts.paa_size;
  std::string reference;
  for (size_t i = 0; i < count; ++i) {
    std::string_view word(block.letters.data() + i * paa, paa);
    if (!LettersHold(i, fallback[i] != 0, block, paa)) {
      reference = SaxWordForWindow(WindowAt(series, pos + i, opts.window),
                                   opts, alphabet);
      word = reference;
    }
    if (KeepWord(records.words, word, numerosity, alphabet)) {
      records.words.emplace_back(word);
      records.offsets.push_back(pos + i);
    }
  }
}

SaxRecords ReserveRecords(size_t windows) {
  SaxRecords records;
  records.words.reserve(windows);
  records.offsets.reserve(windows);
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
  const SpanSource src{series.data(), stats.prefix_data(),
                       stats.prefix_sq_data()};
  const size_t windows = NumSlidingWindows(series.size(), opts.window);
  SaxBlockScratch block(geometry,
                        std::min(windows, SaxBlockWindows(opts.paa_size)));
  SaxRecords records = ReserveRecords(windows);
  for (size_t pos = 0; pos < windows; pos += block.capacity) {
    const size_t count = std::min(block.capacity, windows - pos);
    ZRows(src, geometry, opts.znorm_epsilon, pos, count, block,
          block.z.data(), block.z_err.data());
    Letters(block.z.data(), block.z_err.data(), count * opts.paa_size,
            alphabet, block, block.letters.data());
    AppendBlockRecords(series, pos, count, block.fallback.data(), block, opts,
                       numerosity, alphabet, records);
  }
  return records;
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

size_t SaxBlockWindows(size_t paa_size) {
  constexpr size_t kBlockValues = 1024;
  return std::max<size_t>(1, kBlockValues / paa_size);
}

SaxBlockScratch::SaxBlockScratch(const SaxPaaGeometry& geometry,
                                 size_t windows)
    : capacity(windows),
      // A divisible block reads the segments at its windows' positions
      // plus (paa - 1) steps; a fractional one keeps each window's own.
      seg_mean(geometry.divisible
                   ? windows + (geometry.paa - 1) * geometry.step
                   : windows * geometry.paa),
      seg_err(seg_mean.size()),
      mean(windows),
      mean_err(windows),
      inv(windows),
      inv_rel_err(windows),
      fallback(windows),
      z(windows * geometry.paa),
      z_err(windows * geometry.paa),
      code(windows * geometry.paa),
      near_cut(windows * geometry.paa),
      letters(windows * geometry.paa) {}

OnlineSaxDiscretizer::OnlineSaxDiscretizer(const SaxOptions& opts)
    : opts_(opts),
      alphabet_(opts.alphabet_size),
      geometry_(opts),
      // Rebasing every 8 windows keeps the prefix magnitudes — and with
      // them the guard bounds — proportional to one window of data, at an
      // amortized rebuild cost of 1/8 of a sample per push.
      rebase_period_(8 * opts.window),
      next_rebase_(rebase_period_),
      ring_(opts.window, 0.0),
      psum_(opts.window + 1, 0.0),
      psumsq_(opts.window + 1, 0.0),
      scratch_(opts.window, 0.0),
      block_(geometry_, 1) {}

bool OnlineSaxDiscretizer::Push(double value, std::string& word, size_t* pos) {
  const size_t w = opts_.window;
  const size_t m = w + 1;
  if (pushed_ == next_rebase_) {
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
    next_rebase_ += rebase_period_;
  }
  // The slots advance by one and wrap, so a push makes no division.
  ring_[sample_slot_] = value;
  sample_slot_ = sample_slot_ + 1 == w ? 0 : sample_slot_ + 1;
  const size_t next_prefix = prefix_slot_ + 1 == m ? 0 : prefix_slot_ + 1;
  psum_[next_prefix] = psum_[prefix_slot_] + value;
  psumsq_[next_prefix] = psumsq_[prefix_slot_] + value * value;
  prefix_slot_ = next_prefix;
  ++pushed_;
  if (pushed_ < w) {
    return false;
  }
  const size_t at = pushed_ - w;
  *pos = at;
  // The block kernel on a block of one window over the rings. The window's
  // first sample is the oldest in the ring, in the slot the next sample
  // will take; P(at) sits one slot past P(pushed_).
  const RingSource src{ring_.data(), psum_.data(), psumsq_.data(), w, at,
                       sample_slot_,
                       prefix_slot_ + 1 == m ? 0 : prefix_slot_ + 1};
  ZRows(src, geometry_, opts_.znorm_epsilon, at, 1, block_, block_.z.data(),
        block_.z_err.data());
  word.resize(opts_.paa_size);
  Letters(block_.z.data(), block_.z_err.data(), opts_.paa_size, alphabet_,
          block_, word.data());
  if (LettersHold(0, block_.fallback[0] != 0.0, block_, opts_.paa_size)) {
    return true;
  }
  // The reference path reads the window materialized from the ring: the w
  // consecutive stream indices [at, at + w) occupy each ring slot once.
  for (size_t i = 0; i < w; ++i) {
    scratch_[i] = ring_[(at + i) % w];
  }
  word = SaxWordForWindow(scratch_, opts_, alphabet_);
  ++fallback_words_;
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
  const RollingStats& stats =
      shared_stats != nullptr ? *shared_stats : *owned_stats;
  const SpanSource src{series.data(), stats.prefix_data(),
                       stats.prefix_sq_data()};
  const SaxPaaGeometry geometry(opts);
  SaxZPlane plane;
  plane.window = opts.window;
  plane.paa_size = opts.paa_size;
  plane.znorm_epsilon = opts.znorm_epsilon;
  plane.positions = NumSlidingWindows(series.size(), opts.window);
  plane.z.resize(plane.positions * plane.paa_size);
  plane.z_err.resize(plane.positions * plane.paa_size);
  plane.fallback.assign(plane.positions, 0);
  // Stages (a)-(c) of each chunk's blocks, straight into the plane.
  const auto rows = [&](size_t row_begin, size_t row_end, size_t /*chunk*/) {
    SaxBlockScratch block(geometry, std::min(row_end - row_begin,
                                             SaxBlockWindows(opts.paa_size)));
    for (size_t pos = row_begin; pos < row_end; pos += block.capacity) {
      const size_t count = std::min(block.capacity, row_end - pos);
      const size_t at = pos * plane.paa_size;
      ZRows(src, geometry, opts.znorm_epsilon, pos, count, block,
            plane.z.data() + at, plane.z_err.data() + at);
      for (size_t i = 0; i < count; ++i) {
        plane.fallback[pos + i] = block.fallback[i] != 0.0;
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
  SaxBlockScratch block(SaxPaaGeometry(opts),
                        std::min(windows, SaxBlockWindows(opts.paa_size)));
  SaxRecords records = ReserveRecords(windows);
  // Stage (d) of each block, from the plane's rows.
  for (size_t pos = 0; pos < windows; pos += block.capacity) {
    const size_t count = std::min(block.capacity, windows - pos);
    const size_t at = pos * opts.paa_size;
    Letters(plane.z.data() + at, plane.z_err.data() + at,
            count * opts.paa_size, alphabet, block, block.letters.data());
    AppendBlockRecords(series, pos, count, plane.fallback.data() + pos, block,
                       opts, opts.numerosity, alphabet, records);
  }
  return records;
}

}  // namespace gva
