#include "grammar/rule_intervals.h"

#include <algorithm>

#include "util/check.h"

namespace gva {

std::vector<RuleInterval> MapRuleIntervals(const Grammar& grammar,
                                           const SaxRecords& records,
                                           size_t window,
                                           size_t series_length) {
  GVA_CHECK_EQ(grammar.num_tokens(), records.size());
  std::vector<RuleInterval> intervals;
  for (size_t ri = 1; ri < grammar.size(); ++ri) {
    const GrammarRule& rule = grammar.rule(ri);
    GVA_DCHECK(rule.expansion_tokens > 0);
    // Frequency is the dynamic occurrence count in R0's expansion — the
    // quantity the RRA outer loop sorts by.
    const size_t frequency = rule.occurrences.size();
    for (size_t start_token : rule.occurrences) {
      const size_t last_token = start_token + rule.expansion_tokens - 1;
      GVA_DCHECK(last_token < records.size());
      const size_t start = records.offsets[start_token];
      const size_t end =
          std::min(series_length, records.offsets[last_token] + window);
      intervals.push_back(RuleInterval{
          static_cast<int32_t>(ri), frequency, Interval{start, end}});
    }
  }
  return intervals;
}

std::vector<uint32_t> RuleDensityCurve(
    const std::vector<RuleInterval>& intervals, size_t series_length) {
  std::vector<int64_t> diff(series_length + 1, 0);
  for (const RuleInterval& ri : intervals) {
    if (ri.span.empty() || ri.span.start >= series_length) {
      continue;
    }
    diff[ri.span.start] += 1;
    diff[std::min(ri.span.end, series_length)] -= 1;
  }
  std::vector<uint32_t> density(series_length, 0);
  int64_t running = 0;
  for (size_t i = 0; i < series_length; ++i) {
    running += diff[i];
    GVA_DCHECK(running >= 0);
    density[i] = static_cast<uint32_t>(running);
  }
  return density;
}

std::vector<RuleInterval> ZeroCoverageIntervals(
    const std::vector<uint32_t>& density, size_t min_length) {
  std::vector<RuleInterval> gaps;
  size_t i = 0;
  while (i < density.size()) {
    if (density[i] != 0) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < density.size() && density[j] == 0) {
      ++j;
    }
    if (j - i >= min_length) {
      gaps.push_back(
          RuleInterval{RuleInterval::kGapRule, 0, Interval{i, j}});
    }
    i = j;
  }
  return gaps;
}

}  // namespace gva
