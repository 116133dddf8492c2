#include "core/streaming.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/strings.h"

namespace gva {

namespace {

bool SpanBefore(const Interval& a, const Interval& b) {
  return a.start != b.start ? a.start < b.start : a.end < b.end;
}

/// Difference-updates `density` (the curve built from the sorted span
/// multiset `old_spans`) into the curve of the sorted span multiset
/// `new_spans`: only spans present in exactly one of the two are touched,
/// so the cost is proportional to the changed coverage, not the suffix.
/// Removals are applied before additions — every point of a removed span
/// is still covered by it in `density`, so the subtraction cannot
/// underflow regardless of how additions interleave.
void ApplySpanDeltas(const std::vector<Interval>& old_spans,
                     const std::vector<Interval>& new_spans,
                     std::vector<uint32_t>& density) {
  std::vector<const Interval*> removed;
  std::vector<const Interval*> added;
  size_t i = 0;
  size_t j = 0;
  while (i < old_spans.size() && j < new_spans.size()) {
    if (old_spans[i] == new_spans[j]) {
      ++i;
      ++j;
    } else if (SpanBefore(old_spans[i], new_spans[j])) {
      removed.push_back(&old_spans[i++]);
    } else {
      added.push_back(&new_spans[j++]);
    }
  }
  for (; i < old_spans.size(); ++i) {
    removed.push_back(&old_spans[i]);
  }
  for (; j < new_spans.size(); ++j) {
    added.push_back(&new_spans[j]);
  }
  for (const Interval* s : removed) {
    for (size_t p = s->start; p < s->end && p < density.size(); ++p) {
      GVA_DCHECK(density[p] > 0);
      --density[p];
    }
  }
  for (const Interval* s : added) {
    for (size_t p = s->start; p < s->end && p < density.size(); ++p) {
      ++density[p];
    }
  }
}

}  // namespace

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
      // retired wholesale (rules, tokens, vocabulary, density — bounded
      // memory comes from dropping complete pipelines, not from surgically
      // un-weaving the grammar).
      if (generations_.size() == 2) {
        generations_.erase(generations_.begin());
        ++generations_evicted_;
        evictions_counter_->Add(1);
      }
      generations_.emplace_back(t, options_.sax);
    }
  } else if (generations_.empty()) {
    generations_.emplace_back(0, options_.sax);
  }
  for (Generation& generation : generations_) {
    Feed(generation, value);
  }
  ++samples_seen_;
  samples_counter_->Add(1);
  retained_gauge_->Set(static_cast<int64_t>(retained_tokens()));
  generations_gauge_->Set(static_cast<int64_t>(generations_.size()));
}

void StreamingAnomalyMonitor::Feed(Generation& generation, double value) {
  size_t pos = 0;
  if (!generation.discretizer.Push(value, word_scratch_, &pos)) {
    return;
  }
  if (!KeepWord(generation.words, word_scratch_, options_.sax.numerosity,
                alphabet_)) {
    return;
  }
  auto [it, inserted] = generation.vocabulary.emplace(
      word_scratch_, static_cast<int32_t>(generation.vocabulary_list.size()));
  if (inserted) {
    generation.vocabulary_list.push_back(word_scratch_);
  }
  const Status status = generation.sequitur.Append(it->second);
  GVA_DCHECK(status.ok());
  generation.tokens.push_back(it->second);
  generation.words.push_back(word_scratch_);
  generation.offsets.push_back(pos);
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

size_t StreamingAnomalyMonitor::sax_fallback_words() const {
  size_t total = 0;
  for (const Generation& generation : generations_) {
    total += generation.discretizer.fallback_words();
  }
  return total;
}

StatusOr<StreamingReport> StreamingAnomalyMonitor::Report() {
  if (generations_.empty() ||
      samples_seen_ - generations_.front().start < options_.sax.window) {
    return Status::FailedPrecondition("not enough samples for one window yet");
  }
  GVA_OBS_SPAN("stream.report");
  reports_counter_->Add(1);
  Generation& generation = generations_.front();
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

  // Difference-update the generation's density curve: grow it to the new
  // suffix length (new points start uncovered) and apply only the spans
  // whose multiset membership changed since the last report. The result is
  // identical to RuleDensityCurve(d.intervals, suffix_length) built from
  // scratch — integer coverage counts add exactly.
  generation.density.resize(suffix_length, 0);
  std::vector<Interval> spans;
  spans.reserve(d.intervals.size());
  for (const RuleInterval& interval : d.intervals) {
    spans.push_back(interval.span);
  }
  std::sort(spans.begin(), spans.end(), SpanBefore);
  ApplySpanDeltas(generation.density_spans, spans, generation.density);
  generation.density_spans = std::move(spans);

  d.density = generation.density;
  report.detection.anomalies =
      FindLowDensityIntervals(generation.density, d.window, options_.density);
  return report;
}

}  // namespace gva
