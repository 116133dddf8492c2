#include "core/job_runner.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/parameter_profile.h"
#include "core/pipeline.h"
#include "core/rra.h"
#include "core/rule_density_detector.h"
#include "discord/brute_force.h"
#include "discord/hotsax.h"
#include "ensemble/ensemble.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace gva {

StatusOr<JobDetector> ParseJobDetector(std::string_view name) {
  if (name == "brute") {
    return JobDetector::kBruteForce;
  }
  if (name == "hotsax") {
    return JobDetector::kHotSax;
  }
  if (name == "rra") {
    return JobDetector::kRra;
  }
  if (name == "density") {
    return JobDetector::kDensity;
  }
  if (name == "ensemble") {
    return JobDetector::kEnsemble;
  }
  if (name == "auto") {
    return JobDetector::kAuto;
  }
  return Status::NotFound("unknown detector '" + std::string(name) +
                          "' (have brute|hotsax|rra|density|ensemble|auto)");
}

const char* JobDetectorName(JobDetector detector) {
  switch (detector) {
    case JobDetector::kBruteForce:
      return "brute";
    case JobDetector::kHotSax:
      return "hotsax";
    case JobDetector::kRra:
      return "rra";
    case JobDetector::kDensity:
      return "density";
    case JobDetector::kEnsemble:
      return "ensemble";
    case JobDetector::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

bool CancelRequested(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// The CLI's ResolveSax, field-for-field: explicit values win, zeros come
/// from the data-driven suggestion, and a failed suggestion silently falls
/// back to the library defaults (the CLI proceeds the same way) — keeping
/// server jobs bit-identical to the equivalent gva_cli invocation.
StatusOr<SaxOptions> ResolveJobSax(const JobSpec& spec,
                                   std::span<const double> series) {
  SaxOptions sax;
  const bool all_given =
      spec.window != 0 && spec.paa != 0 && spec.alphabet != 0;
  if (!all_given) {
    StatusOr<SaxOptions> suggested = SuggestParameters(series);
    if (suggested.ok()) {
      sax = *suggested;
    }
  }
  if (spec.window != 0) {
    sax.window = spec.window;
  }
  if (spec.paa != 0) {
    sax.paa_size = spec.paa;
  }
  if (spec.alphabet != 0) {
    sax.alphabet_size = spec.alphabet;
  }
  GVA_RETURN_IF_ERROR(sax.Validate());
  return sax;
}

void FillFromSax(const SaxOptions& sax, JobOutcome* outcome) {
  outcome->window = sax.window;
  outcome->paa = sax.paa_size;
  outcome->alphabet = sax.alphabet_size;
}

void FillDiscords(const DiscordResult& result, JobOutcome* outcome) {
  outcome->distance_calls = result.distance_calls;
  size_t rank = 0;
  for (const DiscordRecord& d : result.discords) {
    outcome->anomalies.push_back(
        JobAnomaly{d.position, d.position + d.length, d.distance, rank});
    ++rank;
  }
}

StatusOr<JobOutcome> RunEnsembleJob(const JobSpec& spec,
                                    std::span<const double> series,
                                    bool force_auto_grid) {
  EnsembleOptions options;
  options.anomaly.threshold_fraction = spec.threshold;
  options.anomaly.max_anomalies = spec.top_k;
  options.num_threads = spec.num_threads;
  const bool single_config =
      !force_auto_grid &&
      (spec.window != 0 || spec.paa != 0 || spec.alphabet != 0);
  JobOutcome outcome;
  outcome.detector = "ensemble";
  if (single_config) {
    StatusOr<SaxOptions> sax = ResolveJobSax(spec, series);
    GVA_RETURN_IF_ERROR(sax.status());
    options.configs.push_back(
        EnsembleConfig{sax->window, sax->paa_size, sax->alphabet_size});
    FillFromSax(*sax, &outcome);
  }
  // else: empty grid -> AutoEnsembleGrid inside RunEnsemble, the CLI's
  // no-flags path; the resolved triple stays 0 (many configs ran).
  StatusOr<EnsembleDetection> detection = RunEnsemble(series, options);
  GVA_RETURN_IF_ERROR(detection.status());
  for (const EnsembleAnomaly& a : detection->anomalies) {
    outcome.anomalies.push_back(
        JobAnomaly{a.span.start, a.span.end, a.mean_score, a.rank});
  }
  outcome.score_curve = std::move(detection->score);
  return outcome;
}

}  // namespace

StatusOr<JobOutcome> RunDetectionJob(const JobSpec& spec,
                                     std::span<const double> series,
                                     const std::atomic<bool>* cancel) {
  if (CancelRequested(cancel)) {
    return Status::Cancelled("job cancelled before start");
  }

  StatusOr<JobOutcome> outcome = [&]() -> StatusOr<JobOutcome> {
    switch (spec.detector) {
      case JobDetector::kBruteForce: {
        StatusOr<SaxOptions> sax = ResolveJobSax(spec, series);
        GVA_RETURN_IF_ERROR(sax.status());
        StatusOr<DiscordResult> result = FindDiscordsBruteForce(
            series, sax->window, spec.top_k, spec.num_threads);
        GVA_RETURN_IF_ERROR(result.status());
        JobOutcome out;
        out.detector = "brute";
        FillFromSax(*sax, &out);
        FillDiscords(*result, &out);
        return out;
      }
      case JobDetector::kHotSax: {
        StatusOr<SaxOptions> sax = ResolveJobSax(spec, series);
        GVA_RETURN_IF_ERROR(sax.status());
        HotSaxOptions options;
        options.sax = *sax;
        options.top_k = spec.top_k;
        options.num_threads = spec.num_threads;
        options.cancel = cancel;
        StatusOr<DiscordResult> result = FindDiscordsHotSax(series, options);
        GVA_RETURN_IF_ERROR(result.status());
        JobOutcome out;
        out.detector = "hotsax";
        FillFromSax(*sax, &out);
        FillDiscords(*result, &out);
        return out;
      }
      case JobDetector::kRra: {
        StatusOr<SaxOptions> sax = ResolveJobSax(spec, series);
        GVA_RETURN_IF_ERROR(sax.status());
        RraOptions options;
        options.sax = *sax;
        options.top_k = spec.top_k;
        options.exact_nearest_neighbor = !spec.approx;
        options.num_threads = spec.num_threads;
        options.cancel = cancel;
        StatusOr<RraDetection> detection = FindRraDiscords(series, options);
        GVA_RETURN_IF_ERROR(detection.status());
        JobOutcome out;
        out.detector = "rra";
        FillFromSax(*sax, &out);
        FillDiscords(detection->result, &out);
        out.density = std::move(detection->decomposition.density);
        return out;
      }
      case JobDetector::kDensity: {
        StatusOr<SaxOptions> sax = ResolveJobSax(spec, series);
        GVA_RETURN_IF_ERROR(sax.status());
        DensityAnomalyOptions options;
        options.threshold_fraction = spec.threshold;
        options.max_anomalies = spec.top_k;
        StatusOr<DensityDetection> detection =
            DetectDensityAnomalies(series, *sax, options);
        GVA_RETURN_IF_ERROR(detection.status());
        JobOutcome out;
        out.detector = "density";
        FillFromSax(*sax, &out);
        for (const DensityAnomaly& a : detection->anomalies) {
          out.anomalies.push_back(
              JobAnomaly{a.span.start, a.span.end, a.mean_density, a.rank});
        }
        out.density = std::move(detection->decomposition.density);
        return out;
      }
      case JobDetector::kEnsemble:
        return RunEnsembleJob(spec, series, /*force_auto_grid=*/false);
      case JobDetector::kAuto:
        // "auto" is the ensemble over the automatic grid: the cross-config
        // vote is the robust choice when the caller supplies nothing.
        return RunEnsembleJob(spec, series, /*force_auto_grid=*/true);
    }
    return Status::InvalidArgument("unknown detector");
  }();

  // A cancel that lands mid-run in a detector without a token (everything
  // but HOTSAX and RRA) surfaces here: the result is complete but
  // unwanted — report Cancelled rather than handing back work the caller
  // abandoned.
  if (CancelRequested(cancel)) {
    return Status::Cancelled("job cancelled while running");
  }
  return outcome;
}

Status JobRunnerOptions::Validate() const {
  if (slots == 0) {
    return Status::InvalidArgument("job runner needs at least one slot");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("job queue capacity must be >= 1");
  }
  if (max_threads_per_job == 0) {
    return Status::InvalidArgument("max_threads_per_job must be >= 1");
  }
  // slots * max_threads_per_job bounds the threads the runner can have
  // running at once, so it gets the pool's own lane cap. The division form
  // cannot overflow: a * b <= N exactly when b <= N / a.
  if (max_threads_per_job > ThreadPool::kMaxLanes / slots) {
    return Status::InvalidArgument(StrFormat(
        "slots * max_threads_per_job must be <= %zu (got %zu * %zu)",
        ThreadPool::kMaxLanes, slots, max_threads_per_job));
  }
  if (max_series_points == 0) {
    return Status::InvalidArgument("max_series_points must be >= 1");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<JobRunner>> JobRunner::Create(
    const JobRunnerOptions& options) {
  GVA_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<JobRunner>(new JobRunner(options));
}

JobRunner::JobRunner(const JobRunnerOptions& options)
    : options_(options),
      slots_busy_gauge_(&obs::GlobalMetrics().gauge("server.slots.busy")),
      queue_depth_gauge_(&obs::GlobalMetrics().gauge("server.queue.depth")),
      accepted_counter_(&obs::GlobalMetrics().counter("server.jobs.accepted")),
      rejected_counter_(&obs::GlobalMetrics().counter("server.jobs.rejected")),
      completed_counter_(
          &obs::GlobalMetrics().counter("server.jobs.completed")),
      failed_counter_(&obs::GlobalMetrics().counter("server.jobs.failed")),
      cancelled_counter_(
          &obs::GlobalMetrics().counter("server.jobs.cancelled")) {
  workers_.reserve(options_.slots);
  for (size_t i = 0; i < options_.slots; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobRunner::~JobRunner() { Shutdown(); }

StatusOr<uint64_t> JobRunner::Submit(JobSpec spec) {
  if (spec.series.empty()) {
    return Status::InvalidArgument("job series is empty");
  }
  if (spec.series.size() > options_.max_series_points) {
    return Status::InvalidArgument(
        "job series exceeds the runner's max_series_points");
  }
  // Checked at submission, for every detector, so a bad threshold is a 400
  // to the client rather than a job that fails once it runs.
  DensityAnomalyOptions density;
  density.threshold_fraction = spec.threshold;
  GVA_RETURN_IF_ERROR(density.Validate());
  // 0 means "all cores" at the library layer; inside a multi-slot server
  // that would oversubscribe, so both 0 and large values clamp to the
  // per-job lane budget. Results are thread-count invariant, so the clamp
  // never changes an answer.
  if (spec.num_threads == 0 ||
      spec.num_threads > options_.max_threads_per_job) {
    spec.num_threads = options_.max_threads_per_job;
  }

  auto job = std::make_shared<Job>();
  job->series =
      std::make_shared<const std::vector<double>>(std::move(spec.series));
  spec.series = {};
  job->spec = std::move(spec);

  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    return Status::FailedPrecondition("job runner is shut down");
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++rejected_;
    rejected_counter_->Add(1);
    return Status::ResourceExhausted("job queue is full");
  }
  job->id = next_id_++;
  jobs_.emplace(job->id, job);
  queue_.push_back(job);
  ++accepted_;
  accepted_counter_->Add(1);
  PublishGaugesLocked();
  wake_.notify_one();
  return job->id;
}

void JobRunner::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stop_ set and nothing left to run
    }
    std::shared_ptr<Job> job = queue_.front();
    queue_.pop_front();
    job->state = JobState::kRunning;
    ++slots_busy_;
    PublishGaugesLocked();
    lock.unlock();

    // spec and series are immutable after Submit; only the worker writes
    // state/status/outcome, and only under the lock.
    StatusOr<JobOutcome> result =
        RunDetectionJob(job->spec, *job->series, &job->cancel);

    lock.lock();
    --slots_busy_;
    const bool flagged = job->cancel.load(std::memory_order_relaxed);
    if (!result.ok() &&
        result.status().code() == StatusCode::kCancelled) {
      job->state = JobState::kCancelled;
      job->status = result.status();
      ++cancelled_;
      cancelled_counter_->Add(1);
    } else if (flagged) {
      job->state = JobState::kCancelled;
      job->status = Status::Cancelled("job cancelled while running");
      ++cancelled_;
      cancelled_counter_->Add(1);
    } else if (result.ok()) {
      job->state = JobState::kDone;
      job->outcome = std::move(*result);
      ++completed_;
      completed_counter_->Add(1);
    } else {
      job->state = JobState::kFailed;
      job->status = result.status();
      ++failed_;
      failed_counter_->Add(1);
    }
    PublishGaugesLocked();
  }
}

StatusOr<JobSnapshot> JobRunner::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job");
  }
  return SnapshotLocked(*it->second);
}

std::vector<JobSnapshot> JobRunner::List(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  for (const auto& [id, job] : jobs_) {
    (void)id;
    if (!tenant.empty() && job->spec.tenant != tenant) {
      continue;
    }
    out.push_back(SnapshotLocked(*job));
  }
  return out;
}

Status JobRunner::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job");
  }
  Job& job = *it->second;
  if (job.state == JobState::kDone || job.state == JobState::kFailed ||
      job.state == JobState::kCancelled) {
    return Status::Ok();  // already finished; cancel is idempotent
  }
  job.cancel.store(true, std::memory_order_relaxed);
  if (job.state == JobState::kQueued) {
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if ((*qit)->id == id) {
        queue_.erase(qit);
        break;
      }
    }
    job.state = JobState::kCancelled;
    job.status = Status::Cancelled("job cancelled while queued");
    ++cancelled_;
    cancelled_counter_->Add(1);
    PublishGaugesLocked();
  }
  // A running job transitions when its worker observes the flag.
  return Status::Ok();
}

void JobRunner::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (const auto& [id, job] : jobs_) {
      (void)id;
      job->cancel.store(true, std::memory_order_relaxed);
    }
    while (!queue_.empty()) {
      std::shared_ptr<Job> job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kCancelled;
      job->status = Status::Cancelled("job runner shut down");
      ++cancelled_;
      cancelled_counter_->Add(1);
    }
    PublishGaugesLocked();
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

JobSnapshot JobRunner::SnapshotLocked(const Job& job) const {
  JobSnapshot snap;
  snap.id = job.id;
  snap.tenant = job.spec.tenant;
  snap.state = job.state;
  snap.status = job.status;
  snap.series = job.series;
  snap.spec = job.spec;
  snap.outcome = job.outcome;
  return snap;
}

void JobRunner::PublishGaugesLocked() {
  slots_busy_gauge_->Set(static_cast<int64_t>(slots_busy_));
  queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
}

size_t JobRunner::slots_busy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_busy_;
}

size_t JobRunner::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t JobRunner::jobs_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

uint64_t JobRunner::jobs_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

uint64_t JobRunner::jobs_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

uint64_t JobRunner::jobs_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

uint64_t JobRunner::jobs_cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_;
}

}  // namespace gva
