#ifndef GVA_GRAMMAR_RULE_INTERVALS_H_
#define GVA_GRAMMAR_RULE_INTERVALS_H_

#include <cstdint>
#include <vector>

#include "grammar/grammar.h"
#include "sax/sax_transform.h"
#include "timeseries/interval.h"

namespace gva {

/// A grammar-rule occurrence mapped back onto the original time series
/// (paper Section 3.4): the subsequence spanned by the rule's SAX words.
struct RuleInterval {
  /// Rule index in the grammar; kGapRule for zero-coverage gap intervals.
  int32_t rule = 0;
  /// Number of occurrences of the rule in the grammar (0 for gaps).
  size_t rule_frequency = 0;
  /// Covered series positions, half-open.
  Interval span;

  static constexpr int32_t kGapRule = -1;
};

/// Maps every occurrence of every rule (except R0) onto the series: an
/// occurrence covering tokens [t0, t1] covers series positions
/// [offsets[t0], offsets[t1] + window), clamped to the series length.
std::vector<RuleInterval> MapRuleIntervals(const Grammar& grammar,
                                           const SaxRecords& records,
                                           size_t window,
                                           size_t series_length);

/// The rule density curve (paper Section 4.1): for every series point, the
/// number of rule intervals covering it. Computed with a difference array in
/// O(series_length + intervals).
std::vector<uint32_t> RuleDensityCurve(
    const std::vector<RuleInterval>& intervals, size_t series_length);

/// Maximal zero-density runs of the density curve — the candidate anomalies
/// the RRA algorithm adds as frequency-0 intervals ("continuous subsequences
/// of the discretized time series that do not form any rule"). Runs shorter
/// than `min_length` are dropped.
std::vector<RuleInterval> ZeroCoverageIntervals(
    const std::vector<uint32_t>& density, size_t min_length);

}  // namespace gva

#endif  // GVA_GRAMMAR_RULE_INTERVALS_H_
