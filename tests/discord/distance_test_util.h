#ifndef GVA_TESTS_DISCORD_DISTANCE_TEST_UTIL_H_
#define GVA_TESTS_DISCORD_DISTANCE_TEST_UTIL_H_

#include <cstddef>

#include "discord/distance.h"

namespace gva {

/// One distance call between windows [p, p + length) and [q, q + length)
/// of `dist`'s series, through a fresh scan whose query is p: the pairwise
/// form the oracle and kernel tests read best in. The searches keep one
/// scan per chunk instead and normalize each query once.
inline double PairDistance(const SubsequenceDistance& dist, size_t p,
                           size_t q, size_t length,
                           double limit = SubsequenceDistance::kInfinity) {
  DistanceScan scan(dist);
  scan.SetQuery(p, length, dist.StatsOf(p, length));
  return scan.Distance(q, dist.StatsOf(q, length), limit);
}

}  // namespace gva

#endif  // GVA_TESTS_DISCORD_DISTANCE_TEST_UTIL_H_
