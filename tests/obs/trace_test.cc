#include "obs/trace.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace gva::obs {
namespace {

/// Test-scoped capture on the global tracer (the macro records there).
class GlobalTraceCapture {
 public:
  GlobalTraceCapture() { GlobalTracer().Enable(); }
  ~GlobalTraceCapture() {
    GlobalTracer().Disable();
    GlobalTracer().Clear();
    SetStageTimingEnabled(false);
  }
};

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.RecordComplete("x", "gva", 0, 5);
  // RecordComplete is the low-level sink and always appends; the gating
  // lives in ScopedSpan. So this event lands:
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, EnableClearsAndReanchors) {
  Tracer tracer;
  tracer.RecordComplete("stale", "gva", 0, 1);
  tracer.Enable();
  EXPECT_TRUE(tracer.enabled());
  EXPECT_EQ(tracer.event_count(), 0u);
  const uint64_t t0 = tracer.NowMicros();
  EXPECT_LT(t0, 1000000u);  // origin re-anchored: near zero, not epoch-scale
  tracer.Disable();
  EXPECT_FALSE(tracer.enabled());
}

TEST(TracerTest, JsonIsChromeTraceShaped) {
  Tracer tracer;
  tracer.Enable();
  tracer.RecordComplete("alpha", "gva", 10, 20);
  tracer.RecordComplete("beta", "gva", 15, 5);
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 20"), std::string::npos);
}

TEST(TracerTest, ThreadsGetDenseDistinctTids) {
  Tracer tracer;
  tracer.Enable();
  tracer.RecordComplete("caller", "gva", 0, 1);
  std::thread other([&] { tracer.RecordComplete("worker", "gva", 1, 1); });
  other.join();
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  EXPECT_EQ(json.find("\"tid\": 2"), std::string::npos);
}

TEST(ScopedSpanTest, IdleSpanIsANoOp) {
  GlobalTracer().Disable();
  GlobalTracer().Clear();
  {
    GVA_OBS_SPAN("should.not.record");
  }
  EXPECT_EQ(GlobalTracer().event_count(), 0u);
}

TEST(ScopedSpanTest, NestedSpansAreContainedIntervals) {
  GlobalTraceCapture capture;
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
    }
  }
  if constexpr (!kEnabled) {
    return;  // spans compile to nothing with GVA_OBS=OFF
  }
  ASSERT_EQ(GlobalTracer().event_count(), 2u);
  const std::string json = GlobalTracer().ToJson();
  // Inner is destroyed (and thus recorded) first.
  const size_t inner_at = json.find("\"name\": \"inner\"");
  const size_t outer_at = json.find("\"name\": \"outer\"");
  ASSERT_NE(inner_at, std::string::npos);
  ASSERT_NE(outer_at, std::string::npos);
  EXPECT_LT(inner_at, outer_at);
}

TEST(TracerTest, OpenSpanIsSynthesizedInJsonAtDumpTime) {
  GlobalTraceCapture capture;
  auto span = std::make_unique<ScopedSpan>("still.open");
  if constexpr (!kEnabled) {
    return;  // spans compile to nothing with GVA_OBS=OFF
  }
  // Dump while the span's destructor has not run: it must appear as a
  // complete event with a synthesized end, and the JSON must stay valid
  // (no dangling comma, balanced brackets).
  ASSERT_EQ(GlobalTracer().event_count(), 0u);
  EXPECT_EQ(GlobalTracer().open_span_count(), 1u);
  const std::string json = GlobalTracer().ToJson();
  EXPECT_NE(json.find("\"name\": \"still.open\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
  EXPECT_NE(json.find("]}"), std::string::npos);

  // Ending the span afterwards records it exactly once.
  span.reset();
  EXPECT_EQ(GlobalTracer().open_span_count(), 0u);
  EXPECT_EQ(GlobalTracer().event_count(), 1u);
}

TEST(TracerTest, SpanCrossingDisableIsDroppedNotLeaked) {
  GlobalTracer().Enable();
  auto span = std::make_unique<ScopedSpan>("crosses.disable");
  GlobalTracer().Disable();
  span.reset();  // CompleteOpen pops the stack but must not record
  if constexpr (kEnabled) {
    EXPECT_EQ(GlobalTracer().open_span_count(), 0u);
    EXPECT_EQ(GlobalTracer().event_count(), 0u);
  }
  GlobalTracer().Clear();
}

TEST(ScopedSpanTest, PoolChunksRecordPerThreadSpans) {
  GlobalTraceCapture capture;
  ThreadPool pool(4);
  pool.ParallelFor(0, 4, [&](size_t, size_t, size_t) {
    GVA_OBS_SPAN("chunk");
  });
  if constexpr (!kEnabled) {
    return;
  }
  EXPECT_EQ(GlobalTracer().event_count(), 4u);
  // Every span names the thread that ran it; tids are dense from 0.
  const std::string json = GlobalTracer().ToJson();
  EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
}

TEST(ScopedSpanTest, StageTimingFeedsTheGlobalRegistry) {
  if constexpr (!kEnabled) {
    return;
  }
  GlobalTraceCapture capture;
  SetStageTimingEnabled(true);
  const uint64_t before =
      GlobalMetrics().counter("stage.teststage.alpha.count").value();
  {
    ScopedSpan span("teststage.alpha");
  }
  {
    ScopedSpan span("teststage.alpha");
  }
  SetStageTimingEnabled(false);
  EXPECT_EQ(GlobalMetrics().counter("stage.teststage.alpha.count").value(),
            before + 2);
  // .us is duration-dependent; only its existence and monotonicity are
  // stable. Two instant spans may still round to 0 microseconds.
  EXPECT_GE(GlobalMetrics().counter("stage.teststage.alpha.us").value(), 0u);
}

}  // namespace
}  // namespace gva::obs
