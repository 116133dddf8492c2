// GrammarViz-style analysis report (paper Figures 11-12), batch form: reads
// a univariate CSV time series (or generates the video demo data when no
// path is given), runs the full grammar decomposition and both detectors,
// and prints the panes of the GrammarViz 2.0 GUI as text — the grammar,
// per-rule statistics, the density shading, and the ranked discord table.
//
//   ./build/examples/grammarviz_report [series.csv [window paa alphabet]]

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/motif.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "datasets/video.h"
#include "grammar/grammar_printer.h"
#include "timeseries/io.h"
#include "util/csv.h"
#include "viz/ascii_plot.h"
#include "viz/report.h"

namespace {

/// Positional argument `i` as an unsigned integer, or `fallback` when it is
/// absent. A malformed value exits 2.
size_t SizeArg(int argc, char** argv, int i, size_t fallback) {
  if (argc <= i) {
    return fallback;
  }
  const gva::StatusOr<uint64_t> parsed =
      gva::ParseUnsigned(argv[i], std::numeric_limits<size_t>::max());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  return static_cast<size_t>(*parsed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gva;

  TimeSeries series;
  SaxOptions sax;
  if (argc > 1) {
    sax.window = SizeArg(argc, argv, 2, 150);
    sax.paa_size = SizeArg(argc, argv, 3, 5);
    sax.alphabet_size = SizeArg(argc, argv, 4, 4);
    StatusOr<TimeSeries> loaded = ReadTimeSeriesCsv(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    series = std::move(loaded).value();
  } else {
    VideoOptions options;
    options.num_cycles = 26;
    options.anomalous_cycles = {8, 17};
    LabeledSeries demo = MakeVideo(options);
    series = demo.series;
    sax = demo.recommended;
    std::printf("(no CSV given — using the synthetic video demo dataset)\n");
  }

  std::printf("series: %s, %zu points; SAX window=%zu paa=%zu alphabet=%zu\n\n",
              series.name().c_str(), series.size(), sax.window, sax.paa_size,
              sax.alphabet_size);
  std::printf("%s\n", RenderSeries(series).c_str());

  RraOptions rra_options;
  rra_options.sax = sax;
  rra_options.top_k = 5;
  StatusOr<RraDetection> rra = FindRraDiscords(series, rra_options);
  if (!rra.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 rra.status().ToString().c_str());
    return 1;
  }
  const GrammarDecomposition& decomposition = rra->decomposition;

  std::printf("--- grammar (first 15 rules) "
              "-------------------------------------\n");
  const size_t rules = decomposition.grammar.grammar.size();
  for (size_t r = 0; r < rules && r < 15; ++r) {
    std::printf("R%-3zu -> %s\n", r,
                RuleRhsToString(decomposition.grammar, r).c_str());
  }
  if (rules > 15) {
    std::printf("... (%zu more rules)\n", rules - 15);
  }

  std::printf("\n--- rule statistics "
              "--------------------------------------------\n%s",
              RuleStatsTable(decomposition, 12).c_str());

  std::printf("\n--- rule density shading (white = candidate anomaly) "
              "-------\n%s\n",
              RenderDensityShading(decomposition.density).c_str());

  std::printf("\n--- GrammarViz anomalies (ranked discords) "
              "-----------------\n%s",
              DiscordTable(*rra).c_str());

  // The inverse view: the most recurrent variable-length patterns.
  MotifOptions motif_options;
  motif_options.sax = sax;
  motif_options.max_motifs = 5;
  StatusOr<MotifDetection> motifs = FindMotifs(series, motif_options);
  if (motifs.ok() && !motifs->motifs.empty()) {
    std::printf("\n--- motifs (most recurrent patterns) "
                "------------------------\n");
    std::printf("%-5s %-6s %-6s %-12s %s\n", "Rank", "Rule", "Freq",
                "Len(min-max)", "RHS");
    for (const Motif& m : motifs->motifs) {
      std::printf("%-5zu R%-5d %-6zu %zu-%-10zu %s\n", m.rank, m.rule,
                  m.frequency, m.min_length, m.max_length, m.rhs.c_str());
    }
  }
  return 0;
}
