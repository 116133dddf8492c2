#ifndef GVA_CORE_JOB_RUNNER_H_
#define GVA_CORE_JOB_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/statusor.h"

namespace gva {

/// Detector families a job can request. `kAuto` delegates to the ensemble
/// over the automatic configuration grid — the robust default when the
/// caller knows nothing about the series (the cross-config vote subsumes
/// any single configuration's blind spots; see DESIGN.md §7).
enum class JobDetector {
  kBruteForce,
  kHotSax,
  kRra,
  kDensity,
  kEnsemble,
  kAuto,
};

/// Parses "brute|hotsax|rra|density|ensemble|auto"; NotFound otherwise.
StatusOr<JobDetector> ParseJobDetector(std::string_view name);

/// Stable wire name of a detector ("brute", "hotsax", ...).
const char* JobDetectorName(JobDetector detector);

/// One detection job, as accepted by JobRunner::Submit. Field semantics
/// mirror the gva_cli flags exactly — a job must produce results
/// bit-identical to the corresponding CLI invocation.
struct JobSpec {
  /// Scheduling/accounting label; independent tenants share the runner.
  std::string tenant = "default";
  JobDetector detector = JobDetector::kAuto;
  /// The series to analyze (already materialized by the caller: inline
  /// payload, file load, or demo dataset).
  std::vector<double> series;
  /// Discretization triple; any 0 field is filled from
  /// SuggestParameters(series), like the CLI's flag fallback.
  size_t window = 0;
  size_t paa = 0;
  size_t alphabet = 0;
  /// Anomalies/discords to report (CLI --top).
  size_t top_k = 3;
  /// Density threshold fraction (CLI --threshold), in [0, 1] for every
  /// detector.
  double threshold = 0.05;
  /// Worker lanes inside the search (CLI --threads); clamped to
  /// JobRunnerOptions::max_threads_per_job. Results are thread-count
  /// invariant, so the clamp never changes an answer.
  size_t num_threads = 1;
  /// RRA only: the paper's interval-aligned inner loop (CLI --approx).
  bool approx = false;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Stable wire name of a state ("queued", "running", ...).
const char* JobStateName(JobState state);

/// One ranked anomaly in the unified cross-detector format.
struct JobAnomaly {
  size_t start = 0;
  size_t end = 0;
  /// Detector-native ranking score: NN distance for discord searches
  /// (higher = more anomalous), mean density / mean ensemble score for the
  /// density detectors (lower = more anomalous). Bit-identical to the
  /// library result the CLI prints.
  double score = 0.0;
  size_t rank = 0;
};

/// Result payload of a finished job.
struct JobOutcome {
  /// Resolved detector name ("auto" resolves to what actually ran).
  std::string detector;
  /// Resolved discretization triple (after suggestion).
  size_t window = 0;
  size_t paa = 0;
  size_t alphabet = 0;
  std::vector<JobAnomaly> anomalies;
  uint64_t distance_calls = 0;
  /// Rule-density curve (density/rra jobs) for the SVG report panel.
  std::vector<uint32_t> density;
  /// Aggregated ensemble score curve (ensemble/auto jobs), one per point.
  std::vector<double> score_curve;
};

/// Point-in-time copy of a job's externally visible state. `series` aliases
/// the job's immutable input (shared, not copied) so report renderers can
/// draw it without a per-poll copy.
struct JobSnapshot {
  uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::kQueued;
  /// Why the job failed / was cancelled; OK otherwise.
  Status status;
  std::shared_ptr<const std::vector<double>> series;
  JobSpec spec;  ///< series field left empty (see `series`)
  JobOutcome outcome;
};

struct JobRunnerOptions {
  /// Concurrent job slots (one worker thread each). Validate() bounds
  /// slots * max_threads_per_job by ThreadPool::kMaxLanes.
  size_t slots = 2;
  /// Bounded FIFO admission queue behind the slots; Submit is rejected
  /// with ResourceExhausted when full (the server maps that to 429).
  size_t queue_capacity = 8;
  /// Clamp on JobSpec::num_threads, bounding total pool lanes at
  /// slots * max_threads_per_job.
  size_t max_threads_per_job = 4;
  /// Largest accepted series (InvalidArgument beyond).
  size_t max_series_points = 2000000;

  Status Validate() const;
};

/// Slot-based job scheduler: a fixed worker pool drains a bounded FIFO of
/// detection jobs, modeled on the slot/queue architecture of llama.cpp's
/// server (DESIGN.md §13). Each worker runs one job at a time through the
/// library's detector entry points — the same calls the CLI makes — so
/// results are bit-identical to the CLI's. Cancellation is cooperative:
/// Cancel() removes a queued job immediately and flags a running one (the
/// HOTSAX and RRA searches poll the flag between outer candidates; other
/// detectors finish their current call, then the result is discarded as
/// cancelled).
///
/// The runner is deliberately clock-free (src/core determinism contract):
/// admission order is the only ordering, and ids are a dense sequence.
class JobRunner {
 public:
  static StatusOr<std::unique_ptr<JobRunner>> Create(
      const JobRunnerOptions& options);

  ~JobRunner();
  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Enqueues a job. Fails with ResourceExhausted when the queue is full
  /// (never blocks), InvalidArgument on an unusable spec (empty or
  /// oversized series, threshold outside [0, 1]).
  StatusOr<uint64_t> Submit(JobSpec spec);

  /// Snapshot of one job; NotFound for unknown ids.
  StatusOr<JobSnapshot> Get(uint64_t id) const;

  /// Snapshots of every job, id-ascending. `tenant` filters when non-empty.
  std::vector<JobSnapshot> List(std::string_view tenant = {}) const;

  /// Cancels a job: a queued job transitions to kCancelled immediately; a
  /// running one is flagged and transitions when the detector yields.
  /// Finished jobs are left as-is (OK — cancel is idempotent). NotFound
  /// for unknown ids.
  Status Cancel(uint64_t id);

  /// Flags every live job as cancelled, drains the queue, joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  size_t slots() const { return options_.slots; }
  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Live scheduling state (exact under the runner lock).
  size_t slots_busy() const;
  size_t queue_depth() const;

  /// This runner's lifetime counts, for /healthz. The `server.jobs.*`
  /// registry counters cannot stand in: they sum every runner in the
  /// process, and -DGVA_OBS=OFF compiles them to no-ops.
  uint64_t jobs_accepted() const;
  uint64_t jobs_rejected() const;
  uint64_t jobs_completed() const;
  uint64_t jobs_failed() const;
  uint64_t jobs_cancelled() const;

 private:
  struct Job {
    uint64_t id = 0;
    JobSpec spec;  ///< series moved out into `series`
    std::shared_ptr<const std::vector<double>> series;
    JobState state = JobState::kQueued;
    Status status;
    JobOutcome outcome;
    std::atomic<bool> cancel{false};
  };

  explicit JobRunner(const JobRunnerOptions& options);

  void WorkerLoop();
  JobSnapshot SnapshotLocked(const Job& job) const;
  void PublishGaugesLocked();

  const JobRunnerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  uint64_t next_id_ = 1;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  size_t slots_busy_ = 0;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t cancelled_ = 0;
  std::vector<std::thread> workers_;

  // Registry-owned handles (stable addresses): the server.* health series
  // telemetry scrapes see move while jobs flow.
  obs::Gauge* slots_busy_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* accepted_counter_;
  obs::Counter* rejected_counter_;
  obs::Counter* completed_counter_;
  obs::Counter* failed_counter_;
  obs::Counter* cancelled_counter_;
};

/// Runs one job spec synchronously through the library's detector entry
/// points (the exact calls gva_cli makes), polling `cancel` where the
/// detector supports it. Exposed for the differential tests that pin
/// server results to library results.
StatusOr<JobOutcome> RunDetectionJob(const JobSpec& spec,
                                     std::span<const double> series,
                                     const std::atomic<bool>* cancel);

}  // namespace gva

#endif  // GVA_CORE_JOB_RUNNER_H_
