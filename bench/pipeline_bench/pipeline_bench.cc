// pipeline_bench: one self-checking benchmark for the batch detectors, the
// ensemble, the streaming monitor and gva_serverd, measured end to end
// (series in, anomalies out) and, in a separate traced run, layer by layer.
//
//   pipeline_bench --workload=NAME [--seed=S] [--seconds=T] [--traced]
//                  [--trace-out=PATH] [--serverd=PATH]
//   pipeline_bench --smoke [--workload=NAME]
//
// Each run generates its inputs from --seed, CHECKs the detectors' results
// against references (brute force, the batch detector, the one-call entry
// points, in-process RunDetectionJob) before timing, then measures for
// --seconds (default 10). It prints every metric with its unit and sample
// count, and as its last line one JSON object
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics, or with --traced the per-layer metrics
// (and a Chrome trace of the bench-owned layer spans at --trace-out). Any
// failed CHECK or mismatching operation makes the exit code non-zero.
// --smoke runs every workload (or the one named) at a seconds-scale size.
// README.md lists the workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "backend/backend.h"
#include "bench_core.h"
#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload=NAME [--seed=S] "
               "[--seconds=T] [--traced] [--trace-out=PATH] "
               "[--serverd=PATH]\n"
               "       pipeline_bench --smoke [--workload=NAME]\n"
               "workloads:");
  for (const gva::bench::Workload& w : gva::bench::AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool Value(const std::string& arg, const char* flag, std::string* out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

void RunOne(const gva::bench::RunContext& ctx,
            const gva::bench::Workload& workload) {
  using gva::bench::Check;
  gva::bench::Header(std::string(workload.name) +
                     (ctx.traced ? " (traced)" : "") + ": " + workload.why);
  std::printf("seed %llu, %g s, backend %s, nproc %u\n",
              static_cast<unsigned long long>(ctx.seed), ctx.seconds,
              gva::backend::ActiveBackend().name,
              std::thread::hardware_concurrency());
  const int failures_before = gva::bench::g_check_failures;
  gva::bench::WorkloadOutput out;
  workload.run(ctx, &out);
  Check(out.tally.attempted > 0 && out.tally.failed == 0,
        "every timed operation matched its checked reference (" +
            std::to_string(out.tally.failed) + " of " +
            std::to_string(out.tally.attempted) + " failed)");
  bool finite = !out.metrics.metrics().empty();
  for (const gva::bench::Metric& m : out.metrics.metrics()) {
    finite &= std::isfinite(m.value);
  }
  Check(finite, "every metric is a finite number");
  out.metrics.PrintTable();
  const bool correct = gva::bench::g_check_failures == failures_before;
  std::printf("%s\n", out.metrics.ResultJson(correct, out.tally).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  gva::bench::RunContext ctx;
  ctx.serverd_path = GVA_SERVERD_PATH;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (Value(arg, "--workload", &ctx.workload) ||
        Value(arg, "--trace-out", &ctx.trace_out) ||
        Value(arg, "--serverd", &ctx.serverd_path)) {
      continue;
    }
    if (Value(arg, "--seed", &value)) {
      char* end = nullptr;
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return Usage();
      }
    } else if (Value(arg, "--seconds", &value)) {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
      seconds_given = true;
      if (!(ctx.seconds > 0.0)) {
        return Usage();
      }
    } else if (arg == "--traced") {
      ctx.traced = true;
    } else if (arg == "--smoke") {
      ctx.smoke = true;
    } else {
      return Usage();
    }
  }
  if (ctx.smoke && !seconds_given) {
    ctx.seconds = 0.2;
  }

  bool ran = false;
  for (const gva::bench::Workload& w : gva::bench::AllWorkloads()) {
    if (ctx.workload == w.name || (ctx.smoke && ctx.workload.empty())) {
      if (ctx.smoke && ctx.workload.empty()) {
        // The smoke run covers both measurement modes of every workload.
        gva::bench::RunContext traced = ctx;
        traced.traced = true;
        RunOne(traced, w);
      }
      RunOne(ctx, w);
      ran = true;
    }
  }
  if (!ran) {
    return Usage();
  }
  return gva::bench::CheckExitCode();
}
