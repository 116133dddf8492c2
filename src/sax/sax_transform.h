#ifndef GVA_SAX_SAX_TRANSFORM_H_
#define GVA_SAX_SAX_TRANSFORM_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sax/alphabet.h"
#include "sax/mindist.h"
#include "timeseries/rolling_stats.h"
#include "timeseries/znorm.h"
#include "util/status.h"
#include "util/statusor.h"

namespace gva {

class ThreadPool;

/// How consecutive identical SAX words are collapsed (paper Section 3.2).
enum class NumerosityReduction {
  /// Keep every window's word.
  kNone,
  /// Record a word only when it differs from the previous recorded word
  /// (the paper's strategy).
  kExact,
  /// Record a word only when its MINDIST to the previous recorded word is
  /// non-zero (the looser option exposed by the GrammarViz 2.0 UI).
  kMinDist,
};

/// Whether two SAX words have the same letters. Words are fixed-width
/// letter codes, so they are compared 8 and then 4 bytes at a time with
/// fixed-size loads, not through a memcmp call: most windows repeat the
/// last kept word, so this comparison runs for nearly every window.
inline bool SameLetters(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  const char* x = a.data();
  const char* y = b.data();
  size_t n = a.size();
  for (; n >= 8; n -= 8, x += 8, y += 8) {
    uint64_t u = 0;
    uint64_t v = 0;
    std::memcpy(&u, x, 8);
    std::memcpy(&v, y, 8);
    if (u != v) {
      return false;
    }
  }
  if (n >= 4) {
    uint32_t u = 0;
    uint32_t v = 0;
    std::memcpy(&u, x, 4);
    std::memcpy(&v, y, 4);
    if (u != v) {
      return false;
    }
    x += 4;
    y += 4;
    n -= 4;
  }
  for (; n > 0; --n, ++x, ++y) {
    if (*x != *y) {
      return false;
    }
  }
  return true;
}

/// The numerosity-reduction decision (paper Section 3.2): whether `word`
/// is kept after the words already kept in `kept` (only the last one is
/// compared). Shared by the batch discretization loops and the streaming
/// engine; inline because every window of every series goes through it.
/// `word` is a view, so the batch loops compare a window's fixed-width
/// letters in place and make a std::string only of the words they keep.
inline bool KeepWord(const std::vector<std::string>& kept,
                     std::string_view word, NumerosityReduction numerosity,
                     const NormalAlphabet& alphabet) {
  if (kept.empty()) {
    return true;
  }
  const std::string& prev = kept.back();
  switch (numerosity) {
    case NumerosityReduction::kNone:
      return true;
    case NumerosityReduction::kExact:
      return !SameLetters(word, prev);
    case NumerosityReduction::kMinDist:
      return !MinDistIsZero(word, prev, alphabet);
  }
  return true;
}

/// Discretization parameters shared by every SAX consumer in the library.
struct SaxOptions {
  /// Sliding window length (the "seed" size; discovered anomalies are not
  /// bounded by it).
  size_t window = 100;
  /// Number of PAA segments per window (word length).
  size_t paa_size = 4;
  /// Alphabet size in [2, 26].
  size_t alphabet_size = 4;
  /// Numerosity reduction strategy.
  NumerosityReduction numerosity = NumerosityReduction::kExact;
  /// Flat-window threshold for z-normalization.
  double znorm_epsilon = kDefaultZNormEpsilon;

  /// Validates ranges and window-vs-paa consistency.
  Status Validate() const;
};

/// Result of sliding-window discretization: a sequence of SAX words together
/// with the starting position of each word's window in the original series.
/// After numerosity reduction, words.size() == offsets.size() <= windows.
struct SaxRecords {
  std::vector<std::string> words;
  std::vector<size_t> offsets;

  size_t size() const { return words.size(); }
  bool empty() const { return words.empty(); }
};

/// Discretizes one z-normalized window into a SAX word of length
/// `opts.paa_size` using `alphabet` (must have size opts.alphabet_size).
/// This is the reference path: every entry point below emits, for every
/// window, exactly the word this function computes on it.
std::string SaxWordForWindow(std::span<const double> window,
                             const SaxOptions& opts,
                             const NormalAlphabet& alphabet);

/// Full sliding-window discretization with the numerosity reduction from
/// `opts` (paper Sections 3.1-3.2). Fails when `opts` is invalid or the
/// series is shorter than the window.
///
/// Every entry point in this header computes its words through one block
/// kernel, a block of consecutive windows at a time. It computes each
/// z-space PAA value algebraically from raw-value range sums — for segment
/// mean s, window mean mu and stddev sigma the z-normalized PAA value is
/// (s - mu) / sigma — instead of materializing the z-normalized window and
/// averaging it the way the reference path (SaxWordForWindow) does. The two
/// orderings agree only up to rounding noise, so every *decision*
/// (flat-vs-normalized window, value-vs-breakpoint) is guarded by a
/// conservative error bound; a window whose decision falls inside the
/// bound, or whose mean or variance is not finite, is recomputed through
/// the reference path. That keeps the output byte-identical to the
/// reference for every input while the guard virtually never fires on
/// finite real data (the bound is orders of magnitude below typical
/// breakpoint clearances). After one O(n) prefix-sum build each word costs
/// O(paa_size), and when paa_size divides the window each PAA segment mean
/// is computed once per series position, not once per window reading it.
StatusOr<SaxRecords> Discretize(std::span<const double> series,
                                const SaxOptions& opts);

/// Discretization of every window with no numerosity reduction — one word
/// per window position. Used by HOTSAX.
StatusOr<SaxRecords> DiscretizeAllWindows(std::span<const double> series,
                                          const SaxOptions& opts);

/// The alphabet-independent half of sliding-window discretization: for every
/// window position, the z-space PAA values of the window's segments together
/// with their conservative error bounds. Depends only on (window, paa_size,
/// znorm_epsilon) — NOT on the alphabet — so one plane is reusable by every
/// discretization that differs only in alphabet size (the ensemble engine's
/// cache key). Rows whose stats guard fired carry no valid z values and are
/// marked `fallback`; DiscretizeWithZPlane computes those windows through the
/// reference path, exactly as Discretize() itself does.
struct SaxZPlane {
  size_t window = 0;
  size_t paa_size = 0;
  double znorm_epsilon = kDefaultZNormEpsilon;
  /// Number of sliding-window positions (rows).
  size_t positions = 0;
  /// positions x paa_size, row-major. Valid only where !fallback[row].
  std::vector<double> z;
  /// Conservative bound on each z value's divergence from the reference
  /// path's arithmetic; same layout as `z`.
  std::vector<double> z_err;
  /// 1 = the stats guard fired for this row; use the reference path.
  std::vector<uint8_t> fallback;
  /// Number of rows with fallback == 1 (diagnostic).
  size_t fallback_rows = 0;

  /// Whether this plane matches `opts`' alphabet-independent geometry.
  bool Matches(const SaxOptions& opts) const {
    return window == opts.window && paa_size == opts.paa_size &&
           znorm_epsilon == opts.znorm_epsilon;
  }
};

/// Computes the z-plane of `series` under `opts` (the alphabet_size field
/// is validated but otherwise unused). `shared_stats`, when non-null, must
/// be a RollingStats built over exactly `series`; passing it skips the
/// per-call prefix-sum build so many configs can share one table. `pool`,
/// when non-null, parallelizes the row loop (rows are independent pure
/// functions of the prefix sums, so the plane is bit-identical for every
/// thread count).
StatusOr<SaxZPlane> ComputeSaxZPlane(std::span<const double> series,
                                     const SaxOptions& opts,
                                     const RollingStats* shared_stats = nullptr,
                                     ThreadPool* pool = nullptr);

/// Sliding-window discretization that reads each window's z-row from a
/// precomputed plane instead of recomputing it. The word function is the
/// one Discretize uses, so the output is byte-identical to
/// Discretize(series, opts) for every input. Fails when the plane's
/// geometry does not match `opts`.
StatusOr<SaxRecords> DiscretizeWithZPlane(std::span<const double> series,
                                          const SaxOptions& opts,
                                          const SaxZPlane& plane);

/// Windows per block of the block kernel for word length `paa_size`: a
/// block holds about 1024 z values, so its scratch (about 48 KiB) stays
/// in cache whatever the word length. Public so that tests can place
/// series lengths and non-finite samples on block edges.
size_t SaxBlockWindows(size_t paa_size);

/// Per-segment PAA geometry of the block kernel. Depends only on
/// (window, paa_size) and is precomputed once per discretization.
struct SaxPaaGeometry {
  struct Segment {
    double lo;
    double hi;
    size_t first;  // floor(lo): index of the first (possibly partial) sample
    size_t last;   // floor(hi): index one past the last full sample
  };

  explicit SaxPaaGeometry(const SaxOptions& opts);

  size_t window;
  size_t paa;
  bool divisible;
  size_t step;
  std::vector<Segment> segments;  // only for the non-divisible case
};

/// Structure-of-arrays scratch of the block kernel (sax_transform.cc) for
/// up to `capacity` consecutive windows: each stage writes flat arrays of
/// doubles (flags and counts included, so that compare-and-select loops
/// vectorize) that the next stage reads in branch-free loops. Only the
/// kernel reads its fields; a caller owns one and reuses it block after
/// block.
struct SaxBlockScratch {
  SaxBlockScratch(const SaxPaaGeometry& geometry, size_t windows);

  size_t capacity;
  // Stage (a): PAA segment means and their error bounds.
  std::vector<double> seg_mean;
  std::vector<double> seg_err;
  // Stage (b): per-window statistics; fallback is 1 where the stats guard
  // fired.
  std::vector<double> mean;
  std::vector<double> mean_err;
  std::vector<double> inv;
  std::vector<double> inv_rel_err;
  std::vector<double> fallback;
  // Stage (c): z values and bounds, capacity x paa, row-major.
  std::vector<double> z;
  std::vector<double> z_err;
  // Stage (d): letter indices, the number of breakpoints within each
  // value's bound, and the letters.
  std::vector<double> code;
  std::vector<double> near_cut;
  std::vector<char> letters;
};

/// Online (push-one-sample) discretizer: the entry point the streaming
/// engine ingests through. Bounded O(window) memory — a ring of the last
/// `window` raw samples plus a ring of running prefix sums — and
/// O(paa_size) per completed window. Each word is Discretize's block
/// kernel run on a block of one window over the rings, so every emitted
/// word is byte-identical to SaxWordForWindow over the same samples (the
/// window is materialized from the ring only when a guard fires).
///
/// The prefix rings are rebased on a deterministic sample-count schedule so
/// their magnitude — and with it the error bound — stays proportional to
/// one window's worth of data instead of growing with the stream; the
/// emitted words do not depend on the rebase schedule (only which path
/// computes them does).
///
/// Owns copies of its options and alphabet, so instances are freely
/// movable and outlive any caller state.
class OnlineSaxDiscretizer {
 public:
  /// `opts` must already be validated (SaxOptions::Validate).
  explicit OnlineSaxDiscretizer(const SaxOptions& opts);

  /// Feeds one sample. When this sample completes a window (i.e. at least
  /// `window` samples have been pushed), writes that window's SAX word into
  /// `word`, its start index into `*pos`, and returns true.
  bool Push(double value, std::string& word, size_t* pos);

  /// Windows that went through the reference path because a numerical
  /// guard fired (diagnostic; each costs O(window) instead of O(paa)).
  size_t fallback_words() const { return fallback_words_; }

 private:
  SaxOptions opts_;
  NormalAlphabet alphabet_;
  SaxPaaGeometry geometry_;
  size_t pushed_ = 0;
  size_t rebase_period_;
  size_t next_rebase_;        // the pushed_ count of the next rebase
  size_t sample_slot_ = 0;    // ring_ slot of the next sample: pushed_ % w
  size_t prefix_slot_ = 0;    // psum_ slot of P(pushed_): pushed_ % (w + 1)
  std::vector<double> ring_;     // last `window` raw samples
  std::vector<double> psum_;     // prefix sums over the stream, ring of w+1
  std::vector<double> psumsq_;   // prefix sums of squares, ring of w+1
  std::vector<double> scratch_;  // contiguous window copy for fallbacks
  SaxBlockScratch block_;        // the kernel's scratch for one window
  size_t fallback_words_ = 0;
};

}  // namespace gva

#endif  // GVA_SAX_SAX_TRANSFORM_H_
