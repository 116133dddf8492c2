#ifndef GVA_TIMESERIES_STATS_H_
#define GVA_TIMESERIES_STATS_H_

#include <span>

namespace gva {

/// Arithmetic mean. Returns 0 for an empty span.
double Mean(std::span<const double> values);

/// Population standard deviation (divides by N, as in the original SAX
/// papers and the GrammarViz implementation). Returns 0 for spans with
/// fewer than 1 element.
double StdDev(std::span<const double> values);

/// Population variance.
double Variance(std::span<const double> values);

/// Smallest element; +inf for an empty span.
double Min(std::span<const double> values);

/// Largest element; -inf for an empty span.
double Max(std::span<const double> values);

}  // namespace gva

#endif  // GVA_TIMESERIES_STATS_H_
