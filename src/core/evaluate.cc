#include "core/evaluate.h"

namespace gva {

namespace {

Interval Widen(const Interval& interval, size_t slack) {
  return Interval{interval.start >= slack ? interval.start - slack : 0,
                  interval.end + slack};
}

}  // namespace

bool HitsAnyTruth(const Interval& found, const std::vector<Interval>& truth,
                  size_t slack) {
  for (const Interval& t : truth) {
    if (found.Overlaps(Widen(t, slack))) {
      return true;
    }
  }
  return false;
}

double OverlapFraction(const Interval& found, const Interval& reference) {
  if (reference.empty()) {
    return 0.0;
  }
  return static_cast<double>(found.OverlapLength(reference)) /
         static_cast<double>(reference.length());
}

double Recall(const std::vector<Interval>& found,
              const std::vector<Interval>& truth, size_t slack) {
  if (truth.empty()) {
    return 1.0;
  }
  size_t hits = 0;
  for (const Interval& t : truth) {
    const Interval widened = Widen(t, slack);
    for (const Interval& f : found) {
      if (f.Overlaps(widened)) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace gva
