#ifndef GVA_CORE_EVALUATE_H_
#define GVA_CORE_EVALUATE_H_

#include <vector>

#include "timeseries/interval.h"

namespace gva {

/// True when `found` overlaps any ground-truth interval. `slack` widens each
/// truth interval on both sides before testing, which accommodates
/// detections that start slightly before the annotated anomaly (discord
/// windows usually do).
bool HitsAnyTruth(const Interval& found, const std::vector<Interval>& truth,
                  size_t slack = 0);

/// Fraction of `reference` covered by `found` in [0, 1] — the "overlap"
/// column of the paper's Table 1 (how much of the HOTSAX discord the RRA
/// discord covers).
double OverlapFraction(const Interval& found, const Interval& reference);

/// Recall over the truth set: fraction of truth intervals hit by at least
/// one found interval (with slack).
double Recall(const std::vector<Interval>& found,
              const std::vector<Interval>& truth, size_t slack = 0);

}  // namespace gva

#endif  // GVA_CORE_EVALUATE_H_
