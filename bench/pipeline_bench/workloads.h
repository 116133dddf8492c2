#ifndef GVA_BENCH_PIPELINE_BENCH_WORKLOADS_H_
#define GVA_BENCH_PIPELINE_BENCH_WORKLOADS_H_

#include <vector>

#include "bench_core.h"

namespace gva::bench {

/// What one workload run leaves behind: its metrics (end-to-end when
/// untraced, per-layer when traced) and its operation tally. CHECK
/// failures go through bench::Check (bench_util.h).
struct WorkloadOutput {
  MetricSink metrics;
  OpTally tally;
};

struct Workload {
  const char* name;
  /// One line: why the workload exists (README.md has the long form).
  const char* why;
  void (*run)(const RunContext& ctx, WorkloadOutput* out);
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& AllWorkloads();

}  // namespace gva::bench

#endif  // GVA_BENCH_PIPELINE_BENCH_WORKLOADS_H_
