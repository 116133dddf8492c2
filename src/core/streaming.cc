#include "core/streaming.h"

#include "obs/trace.h"
#include "util/check.h"
#include "util/strings.h"

namespace gva {

Status StreamingOptions::Validate() const {
  GVA_RETURN_IF_ERROR(sax.Validate());
  GVA_RETURN_IF_ERROR(density.Validate());
  if (horizon != 0 && horizon < sax.window) {
    return Status::InvalidArgument(
        StrFormat("horizon (%zu) must be 0 (unbounded) or >= window (%zu)",
                  horizon, sax.window));
  }
  return Status::Ok();
}

StreamingAnomalyMonitor::StreamingAnomalyMonitor(
    const StreamingOptions& options)
    : options_(options),
      alphabet_(options.sax.alphabet_size),
      discretizer_(options.sax),
      samples_counter_(&obs::GlobalMetrics().counter("stream.samples")),
      tokens_counter_(&obs::GlobalMetrics().counter("stream.tokens")),
      evictions_counter_(&obs::GlobalMetrics().counter("stream.evictions")),
      reports_counter_(&obs::GlobalMetrics().counter("stream.reports")),
      retained_gauge_(&obs::GlobalMetrics().gauge("stream.retained_tokens")),
      generations_gauge_(
          &obs::GlobalMetrics().gauge("stream.generations.live")) {}

StatusOr<StreamingAnomalyMonitor> StreamingAnomalyMonitor::Create(
    const StreamingOptions& options) {
  GVA_RETURN_IF_ERROR(options.Validate());
  return StreamingAnomalyMonitor(options);
}

void StreamingAnomalyMonitor::Push(double value) {
  const size_t t = samples_seen_;
  const size_t horizon = options_.horizon;
  if (horizon > 0) {
    if (t % horizon == 0) {
      // A new generation opens at every horizon boundary; once the one
      // after next opens, the oldest covers >= 2*horizon samples and is
      // retired wholesale (rules, tokens, vocabulary — bounded memory
      // comes from dropping complete pipelines, not from surgically
      // un-weaving the grammar).
      if (generations_.size() == 2) {
        generations_.erase(generations_.begin());
        ++generations_evicted_;
        evictions_counter_->Add(1);
      }
      generations_.emplace_back(t);
    }
  } else if (generations_.empty()) {
    generations_.emplace_back(0);
  }
  size_t pos = 0;
  if (discretizer_.Push(value, word_scratch_, &pos)) {
    for (Generation& generation : generations_) {
      if (generation.start <= pos) {
        Feed(generation, pos - generation.start);
      }
    }
  }
  ++samples_seen_;
  samples_counter_->Add(1);
  retained_gauge_->Set(static_cast<int64_t>(retained_tokens()));
  generations_gauge_->Set(static_cast<int64_t>(generations_.size()));
}

void StreamingAnomalyMonitor::Feed(Generation& generation, size_t offset) {
  if (!KeepWord(generation.words, word_scratch_, options_.sax.numerosity,
                alphabet_)) {
    return;
  }
  auto [it, inserted] = generation.vocabulary.try_emplace(
      word_scratch_, static_cast<int32_t>(generation.vocabulary_list.size()));
  if (inserted) {
    generation.vocabulary_list.push_back(word_scratch_);
  }
  const Status status = generation.sequitur.Append(it->second);
  GVA_DCHECK(status.ok());
  generation.tokens.push_back(it->second);
  generation.words.push_back(word_scratch_);
  generation.offsets.push_back(offset);
  tokens_counter_->Add(1);
}

void StreamingAnomalyMonitor::PushAll(std::span<const double> values) {
  for (double v : values) {
    Push(v);
  }
}

size_t StreamingAnomalyMonitor::tokens_emitted() const {
  return generations_.empty() ? 0 : generations_.front().tokens.size();
}

size_t StreamingAnomalyMonitor::retained_tokens() const {
  size_t total = 0;
  for (const Generation& generation : generations_) {
    total += generation.tokens.size();
  }
  return total;
}

size_t StreamingAnomalyMonitor::report_suffix_start() const {
  return generations_.empty() ? samples_seen_ : generations_.front().start;
}

StatusOr<StreamingReport> StreamingAnomalyMonitor::Report() {
  if (generations_.empty() ||
      samples_seen_ - generations_.front().start < options_.sax.window) {
    return Status::FailedPrecondition("not enough samples for one window yet");
  }
  GVA_OBS_SPAN("stream.report");
  reports_counter_->Add(1);
  const Generation& generation = generations_.front();
  const size_t suffix_length = samples_seen_ - generation.start;

  StreamingReport report;
  report.suffix_start = generation.start;
  report.suffix_length = suffix_length;
  GrammarDecomposition& d = report.detection.decomposition;
  d.series_length = suffix_length;
  d.window = options_.sax.window;
  d.records.words = generation.words;
  d.records.offsets = generation.offsets;
  d.grammar.grammar = generation.sequitur.ExtractGrammar();
  d.grammar.vocabulary = generation.vocabulary_list;
  d.grammar.tokens = generation.tokens;
  d.intervals =
      MapRuleIntervals(d.grammar.grammar, d.records, d.window, suffix_length);
  d.density = RuleDensityCurve(d.intervals, suffix_length);
  report.detection.anomalies =
      FindLowDensityIntervals(d.density, d.window, options_.density);
  return report;
}

}  // namespace gva
