#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "tests/json_test_util.h"

namespace dpe::obs {
namespace {

TEST(TraceTest, DisabledBufferRecordsNothing) {
  TraceBuffer buffer;  // disabled by default
  {
    TraceSpan span("noop", &buffer);
  }
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(TraceTest, DetachedSpanStillMeasuresElapsed) {
  TraceSpan span("free");
  span.End();
  EXPECT_GE(span.elapsed_ms(), 0.0);
}

TEST(TraceTest, EnabledBufferCapturesSpan) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  {
    TraceSpan span("build.compute", &buffer);
  }
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "build.compute");
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceTest, NestedSpansRecordIncreasingDepthAndContainment) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  {
    TraceSpan outer("outer", &buffer);
    {
      TraceSpan middle("middle", &buffer);
      {
        TraceSpan inner("inner", &buffer);
      }
    }
  }
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Spans end inner-first, so the buffer holds inner, middle, outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  // All on one thread, so they share one small tid.
  EXPECT_EQ(events[0].tid, events[2].tid);
  // Containment: outer starts no later and ends no earlier than inner.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[2];
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
}

TEST(TraceTest, DepthOnlyCountsRecordingSpans) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  {
    TraceSpan detached("not-recording");  // no buffer: must not bump depth
    TraceSpan recorded("recording", &buffer);
  }
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceTest, EndIsIdempotent) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  TraceSpan span("once", &buffer);
  span.End();
  const double first = span.elapsed_ms();
  span.End();
  span.End();
  EXPECT_EQ(span.elapsed_ms(), first);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(TraceTest, SpanFeedsLatencyHistogramEvenWhenNotRecording) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat.ms");
  {
    TraceSpan span("timed", nullptr, &h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(TraceTest, EnableAfterConstructionDoesNotRecordInFlightSpan) {
  TraceBuffer buffer;
  TraceSpan span("late", &buffer);
  buffer.set_enabled(true);  // too late: recording decided at construction
  span.End();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(TraceTest, ClearEmptiesBuffer) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  {
    TraceSpan span("gone", &buffer);
  }
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(TraceTest, ChromeJsonShape) {
  TraceBuffer buffer;
  buffer.set_enabled(true);
  {
    TraceSpan outer("build", &buffer);
    {
      TraceSpan inner("tile \"0\"", &buffer);  // quotes must be escaped
    }
  }
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tile \\\"0\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  // Events are sorted by start time: "build" starts first.
  EXPECT_LT(json.find("\"name\":\"build\""),
            json.find("\"name\":\"tile"));
}

TEST(TraceTest, EmptyBufferStillExportsValidShell) {
  TraceBuffer buffer;
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\""), std::string::npos);
}

TEST(TraceTest, TraceNowNsIsMonotonic) {
  const uint64_t a = TraceNowNs();
  const uint64_t b = TraceNowNs();
  EXPECT_LE(a, b);
}

TEST(TraceTest, ExportIsSafeAgainstConcurrentSpanCompletion) {
  // The /trace endpoint exports while builds are mid-flight: hammer
  // ToChromeJson from one thread while others complete spans. The export
  // snapshots under the mutex, so every produced JSON must be
  // well-formed (balanced braces, shell markers present) — a vector
  // reallocation mid-serialize would tear it.
  TraceBuffer buffer;
  buffer.set_enabled(true);
  std::atomic<int> live_writers{3};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&buffer, &live_writers, t] {
      // Fixed span count per writer: keeps the buffer (and thus each
      // export's cost) bounded no matter how threads get scheduled.
      for (uint64_t i = 0; i < 2000; ++i) {
        TraceSpan span("hammer." + std::to_string(t) + "." +
                           std::to_string(i),
                       &buffer);
      }
      live_writers.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  const auto validate = [](const std::string& json, int round) {
    ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
    ASSERT_EQ(json.back(), '\n');
    ASSERT_TRUE(testutil::JsonIsBalanced(json)) << "round " << round;
  };
  for (int round = 0;
       live_writers.load(std::memory_order_relaxed) > 0 && round < 200;
       ++round) {
    validate(buffer.ToChromeJson(), round);
  }
  for (std::thread& t : writers) t.join();
  // One more export after all writers finished: every span made it in.
  validate(buffer.ToChromeJson(), -1);
  EXPECT_EQ(buffer.size(), 3u * 2000u);
}

TEST(TraceTest, AmbientBufferIsThreadLocalAndRestored) {
  EXPECT_EQ(AmbientTraceBuffer(), nullptr);
  TraceBuffer outer_buffer, inner_buffer;
  {
    ScopedAmbientTrace outer(&outer_buffer);
    EXPECT_EQ(AmbientTraceBuffer(), &outer_buffer);
    {
      ScopedAmbientTrace inner(&inner_buffer);
      EXPECT_EQ(AmbientTraceBuffer(), &inner_buffer);
    }
    EXPECT_EQ(AmbientTraceBuffer(), &outer_buffer);
    // Another thread sees its own (null) ambient, not this one's.
    std::thread([] { EXPECT_EQ(AmbientTraceBuffer(), nullptr); }).join();
  }
  EXPECT_EQ(AmbientTraceBuffer(), nullptr);
}

}  // namespace
}  // namespace dpe::obs
