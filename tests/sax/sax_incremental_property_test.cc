// Byte-exactness property tests for the SAX word kernel: every entry point
// — Discretize / DiscretizeAllWindows, ComputeSaxZPlane +
// DiscretizeWithZPlane (serial and on a thread pool), and
// OnlineSaxDiscretizer + KeepWord — must produce exactly the records a
// naive per-window SaxWordForWindow loop produces, across a grid of
// (window, paa_size, alphabet_size, numerosity mode) and series shapes —
// including the shapes designed to stress the kernel's numerical guards
// (flat plateaus, sub-epsilon noise, large offsets that inflate the prefix
// sums, non-divisible window/paa geometry, and non-finite samples that
// poison every later prefix sum).

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/simple.h"
#include "sax/mindist.h"
#include "sax/sax_transform.h"
#include "timeseries/sliding_window.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gva {
namespace {

/// The pre-kernel-overhaul implementation: one full z-normalize + PAA per
/// window through the reference path, with the numerosity reduction applied
/// on the fly. The incremental kernel's contract is byte-identical output.
SaxRecords ReferenceDiscretize(std::span<const double> series,
                               const SaxOptions& opts,
                               NumerosityReduction numerosity) {
  const NormalAlphabet alphabet(opts.alphabet_size);
  const size_t windows = NumSlidingWindows(series.size(), opts.window);
  SaxRecords records;
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

/// The streaming engine's path: OnlineSaxDiscretizer's words through the
/// same KeepWord numerosity decision the batch loops use.
SaxRecords OnlineDiscretize(std::span<const double> series,
                            const SaxOptions& opts) {
  const NormalAlphabet alphabet(opts.alphabet_size);
  OnlineSaxDiscretizer online(opts);
  SaxRecords records;
  std::string word;
  size_t pos = 0;
  for (const double v : series) {
    if (online.Push(v, word, &pos) &&
        KeepWord(records.words, word, opts.numerosity, alphabet)) {
      records.words.push_back(word);
      records.offsets.push_back(pos);
    }
  }
  return records;
}

struct NamedSeries {
  std::string name;
  std::vector<double> values;
};

std::vector<NamedSeries> TestSeries() {
  std::vector<NamedSeries> all;
  all.push_back({"flat", std::vector<double>(400, 3.25)});

  std::vector<double> plateaus(400);
  for (size_t i = 0; i < plateaus.size(); ++i) {
    plateaus[i] = (i / 80) % 2 == 0 ? 1.0 : 4.5;  // flat windows + steps
  }
  all.push_back({"plateaus", plateaus});

  Rng rng(1234);
  std::vector<double> near_flat(400);
  for (double& v : near_flat) {
    v = -2.0 + 0.001 * rng.Gaussian();  // sub-epsilon noise: centering only
  }
  all.push_back({"near_flat", near_flat});

  all.push_back({"sine", MakeSine(500, 37.0, 0.0, 7)});
  all.push_back({"noisy_sine", MakeSine(500, 23.0, 0.2, 11)});
  all.push_back({"random_walk", MakeRandomWalk(500, 1.0, 5)});

  // Large offset: the prefix sums grow to ~5e8, which is exactly the
  // regime where prefix-difference rounding is worst relative to the
  // window-local values; the kernel's guards must still keep the output
  // byte-identical (by falling back where needed).
  std::vector<double> offset = MakeSine(500, 29.0, 0.1, 13);
  for (double& v : offset) {
    v += 1e6;
  }
  all.push_back({"large_offset", offset});

  std::vector<double> spikes = MakeSine(500, 31.0, 0.05, 17);
  for (size_t i = 50; i < spikes.size(); i += 97) {
    spikes[i] += 40.0;  // rare large values, heavy per-window variance swings
  }
  all.push_back({"spiky", spikes});

  // One non-finite sample poisons every later prefix sum (the online
  // rings' until their next rebase), so those windows must go to the
  // reference path.
  std::vector<double> nan_sample = MakeSine(500, 37.0, 0.0, 7);
  nan_sample[230] = std::numeric_limits<double>::quiet_NaN();
  all.push_back({"nan_sample", nan_sample});
  std::vector<double> inf_sample = MakeSine(500, 37.0, 0.0, 7);
  inf_sample[230] = std::numeric_limits<double>::infinity();
  all.push_back({"inf_sample", inf_sample});
  return all;
}

/// Every entry point on `series` under `opts` — Discretize,
/// DiscretizeAllWindows, serial and pooled z-planes, online — against the
/// per-window reference. The pooled plane's valid rows must also equal the
/// serial plane's bit for bit.
void ExpectEveryPathMatchesReference(std::span<const double> series,
                                     const SaxOptions& opts, ThreadPool* pool,
                                     const std::string& label) {
  const SaxRecords ref = ReferenceDiscretize(series, opts, opts.numerosity);
  const auto expect_reference = [&](const SaxRecords& got, const char* path) {
    EXPECT_EQ(got.words, ref.words) << path << " " << label;
    EXPECT_EQ(got.offsets, ref.offsets) << path << " " << label;
  };
  auto fast = Discretize(series, opts);
  ASSERT_TRUE(fast.ok()) << label;
  expect_reference(*fast, "Discretize");
  auto all = DiscretizeAllWindows(series, opts);
  ASSERT_TRUE(all.ok()) << label;
  const SaxRecords all_ref =
      ReferenceDiscretize(series, opts, NumerosityReduction::kNone);
  EXPECT_EQ(all->words, all_ref.words) << "DiscretizeAllWindows " << label;
  auto serial_plane = ComputeSaxZPlane(series, opts);
  auto pooled_plane = ComputeSaxZPlane(series, opts, nullptr, pool);
  ASSERT_TRUE(serial_plane.ok()) << label;
  ASSERT_TRUE(pooled_plane.ok()) << label;
  auto serial = DiscretizeWithZPlane(series, opts, *serial_plane);
  ASSERT_TRUE(serial.ok()) << label;
  expect_reference(*serial, "z-plane");
  auto pooled = DiscretizeWithZPlane(series, opts, *pooled_plane);
  ASSERT_TRUE(pooled.ok()) << label;
  expect_reference(*pooled, "pooled z-plane");
  ASSERT_EQ(serial_plane->fallback, pooled_plane->fallback) << label;
  for (size_t row = 0; row < serial_plane->positions; ++row) {
    if (serial_plane->fallback[row] != 0) {
      continue;
    }
    for (size_t j = 0; j < opts.paa_size; ++j) {
      const size_t at = row * opts.paa_size + j;
      EXPECT_EQ(serial_plane->z[at], pooled_plane->z[at]) << label;
      EXPECT_EQ(serial_plane->z_err[at], pooled_plane->z_err[at]) << label;
    }
  }
  expect_reference(OnlineDiscretize(series, opts), "online");
}

SaxOptions Geometry(size_t window, size_t paa, size_t alphabet = 4) {
  SaxOptions opts;
  opts.window = window;
  opts.paa_size = paa;
  opts.alphabet_size = alphabet;
  return opts;
}

TEST(IncrementalSaxPropertyTest, ByteIdenticalToReferenceAcrossGrid) {
  const std::vector<NamedSeries> series_set = TestSeries();
  // (window, paa) pairs cover divisible, non-divisible, step == 1, and
  // paa == 1 geometry.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {30, 5}, {30, 4}, {7, 3}, {16, 16}, {25, 1}, {64, 8}, {41, 6}};
  const std::vector<size_t> alphabets = {2, 4, 5, 26};
  const std::vector<NumerosityReduction> modes = {
      NumerosityReduction::kNone, NumerosityReduction::kExact,
      NumerosityReduction::kMinDist};

  ThreadPool pool(4);

  for (const NamedSeries& s : series_set) {
    for (const auto& [window, paa] : shapes) {
      SaxOptions geometry;
      geometry.window = window;
      geometry.paa_size = paa;
      // The plane depends only on (window, paa, epsilon): one per shape,
      // replayed through every alphabet and numerosity mode below.
      auto serial_plane = ComputeSaxZPlane(s.values, geometry);
      auto pooled_plane =
          ComputeSaxZPlane(s.values, geometry, nullptr, &pool);
      ASSERT_TRUE(serial_plane.ok());
      ASSERT_TRUE(pooled_plane.ok());
      for (size_t alpha : alphabets) {
        for (NumerosityReduction mode : modes) {
          SaxOptions opts = geometry;
          opts.alphabet_size = alpha;
          opts.numerosity = mode;
          const SaxRecords ref = ReferenceDiscretize(s.values, opts, mode);
          const auto expect_reference = [&](const SaxRecords& got,
                                            const char* path) {
            EXPECT_EQ(got.words, ref.words)
                << path << " " << s.name << " w=" << window << " paa=" << paa
                << " a=" << alpha << " mode=" << static_cast<int>(mode);
            EXPECT_EQ(got.offsets, ref.offsets)
                << path << " " << s.name << " w=" << window << " paa=" << paa
                << " a=" << alpha << " mode=" << static_cast<int>(mode);
          };
          auto fast = Discretize(s.values, opts);
          ASSERT_TRUE(fast.ok());
          expect_reference(*fast, "Discretize");
          auto serial = DiscretizeWithZPlane(s.values, opts, *serial_plane);
          ASSERT_TRUE(serial.ok());
          expect_reference(*serial, "z-plane");
          auto pooled = DiscretizeWithZPlane(s.values, opts, *pooled_plane);
          ASSERT_TRUE(pooled.ok());
          expect_reference(*pooled, "pooled z-plane");
          expect_reference(OnlineDiscretize(s.values, opts), "online");
        }
      }
    }
  }
}

TEST(IncrementalSaxPropertyTest, AllWindowsIsByteIdenticalToo) {
  const std::vector<NamedSeries> series_set = TestSeries();
  for (const NamedSeries& s : series_set) {
    SaxOptions opts;
    opts.window = 48;
    opts.paa_size = 6;
    opts.alphabet_size = 4;
    auto fast = DiscretizeAllWindows(s.values, opts);
    ASSERT_TRUE(fast.ok());
    SaxRecords ref =
        ReferenceDiscretize(s.values, opts, NumerosityReduction::kNone);
    EXPECT_EQ(fast->words, ref.words) << s.name;
    EXPECT_EQ(fast->offsets, ref.offsets) << s.name;
  }
}

TEST(IncrementalSaxPropertyTest, CustomEpsilonStillByteIdentical) {
  // Epsilon sits inside the data's noise band, so the flat-vs-normalized
  // decision flips from window to window — the hardest case for the
  // kernel's flat-decision guard.
  Rng rng(7);
  std::vector<double> v(600);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 5.0 + 0.05 * rng.Gaussian() +
           (i % 120 < 60 ? 0.0 : 0.2 * std::sin(0.4 * static_cast<double>(i)));
  }
  for (double eps : {0.0, 0.01, 0.09, 1.0}) {
    SaxOptions opts;
    opts.window = 36;
    opts.paa_size = 4;
    opts.alphabet_size = 5;
    opts.znorm_epsilon = eps;
    auto fast = Discretize(v, opts);
    ASSERT_TRUE(fast.ok());
    SaxRecords ref = ReferenceDiscretize(v, opts, opts.numerosity);
    EXPECT_EQ(fast->words, ref.words) << "eps=" << eps;
    EXPECT_EQ(fast->offsets, ref.offsets) << "eps=" << eps;
  }
}

// The block kernel computes a block of SaxBlockWindows(paa) windows at a
// time, so the cases below put series lengths, geometries and non-finite
// samples on block edges.

TEST(IncrementalSaxPropertyTest, SeriesLengthsAroundABlockEdge) {
  ThreadPool pool(3);
  // (window, paa) cover divisible, non-divisible and step == 1 geometry.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {30, 5}, {30, 4}, {8, 8}, {41, 6}};
  for (const auto& [window, paa] : shapes) {
    const size_t block = SaxBlockWindows(paa);
    // One full block of windows, one short of it, one past it, and two.
    for (const size_t windows :
         {block - 1, block, block + 1, 2 * block, 2 * block + 1}) {
      const std::vector<double> series =
          MakeSine(windows + window - 1, 37.0, 0.1, 7 + windows);
      for (const NumerosityReduction mode :
           {NumerosityReduction::kExact, NumerosityReduction::kMinDist}) {
        SaxOptions opts = Geometry(window, paa);
        opts.numerosity = mode;
        ExpectEveryPathMatchesReference(
            series, opts, &pool,
            "w=" + std::to_string(window) + " paa=" + std::to_string(paa) +
                " windows=" + std::to_string(windows) +
                " mode=" + std::to_string(static_cast<int>(mode)));
      }
    }
  }
}

TEST(IncrementalSaxPropertyTest, SeriesOfExactlyOneWindow) {
  ThreadPool pool(2);
  for (const auto& [window, paa] : std::vector<std::pair<size_t, size_t>>{
           {30, 5}, {30, 4}, {16, 16}, {25, 1}}) {
    const std::vector<double> series = MakeSine(window, 11.0, 0.2, 5);
    ExpectEveryPathMatchesReference(series, Geometry(window, paa), &pool,
                                    "one window w=" + std::to_string(window) +
                                        " paa=" + std::to_string(paa));
  }
}

TEST(IncrementalSaxPropertyTest, PaaEqualToWindowUsesExactSamples) {
  // step == 1: each segment is one sample, read exactly, with no error.
  ThreadPool pool(3);
  for (const size_t window : {2u, 5u, 12u}) {
    const size_t block = SaxBlockWindows(window);
    for (const size_t alphabet : {2u, 7u, 26u}) {
      const std::vector<double> series =
          MakeRandomWalk(2 * block + window + 3, 1.0, 9 + window);
      ExpectEveryPathMatchesReference(
          series, Geometry(window, window, alphabet), &pool,
          "paa == window " + std::to_string(window) + " a=" +
              std::to_string(alphabet));
    }
  }
}

TEST(IncrementalSaxPropertyTest, NonFiniteSamplesAtBlockEdges) {
  ThreadPool pool(3);
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const auto& [window, paa] :
       std::vector<std::pair<size_t, size_t>>{{30, 5}, {30, 4}}) {
    const size_t block = SaxBlockWindows(paa);
    const size_t windows = 3 * block;
    // Samples only the first or the last window of a block reads.
    const size_t positions[] = {0,
                                block - 1 + window - 1,
                                block,
                                2 * block - 1 + window - 1,
                                windows + window - 2};
    for (const double bad : kNonFinite) {
      for (const size_t at : positions) {
        std::vector<double> series =
            MakeSine(windows + window - 1, 29.0, 0.05, 13);
        series[at] = bad;
        ExpectEveryPathMatchesReference(
            series, Geometry(window, paa), &pool,
            "w=" + std::to_string(window) + " paa=" + std::to_string(paa) +
                " sample " + std::to_string(at) + " = " +
                std::to_string(bad));
      }
    }
  }
}

TEST(IncrementalSaxPropertyTest, PooledPlaneChunksSplitBlocks) {
  // ParallelFor cuts [0, positions) into one chunk per lane; with these
  // lane counts the cuts fall inside blocks, not on their edges.
  const SaxOptions opts = Geometry(30, 5);
  const size_t block = SaxBlockWindows(opts.paa_size);
  const std::vector<double> series =
      MakeSine(3 * block + 7 + opts.window - 1, 31.0, 0.2, 21);
  for (const size_t lanes : {2u, 3u, 4u, 7u}) {
    ThreadPool pool(lanes);
    ExpectEveryPathMatchesReference(series, opts, &pool,
                                    "lanes=" + std::to_string(lanes));
  }
}

TEST(IncrementalSaxPropertyTest, OnlineWordsHoldAcrossRebases) {
  // The online rings rebase every 8 windows of samples; a large offset
  // makes the prefix magnitudes, and so the guard bounds, differ before
  // and after each rebase.
  ThreadPool pool(2);
  for (const auto& [window, paa] : std::vector<std::pair<size_t, size_t>>{
           {10, 5}, {12, 5}, {9, 9}}) {
    std::vector<double> series = MakeSine(30 * window + 5, 17.0, 0.3, 3);
    for (double& v : series) {
      v += 2e5;
    }
    ExpectEveryPathMatchesReference(series, Geometry(window, paa), &pool,
                                    "rebases w=" + std::to_string(window) +
                                        " paa=" + std::to_string(paa));
  }
}

}  // namespace
}  // namespace gva
