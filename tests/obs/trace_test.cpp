#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace drlhmd::obs {
namespace {

TEST(SpanTest, DefaultConstructedIsInertNoOp) {
  Span span;
  EXPECT_FALSE(span.active());
  span.end();  // harmless
}

TEST(TracerTest, RecordsNestingOrderAndDepth) {
  Tracer tracer;
  {
    Span outer = tracer.span("outer");
    {
      Span middle = tracer.span("middle");
      Span inner = tracer.span("inner");
    }
    Span sibling = tracer.span("sibling");
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[0].parent, TraceEvent::kNoParent);
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[1].parent, 0u);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[2].parent, 1u);
  EXPECT_EQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].depth, 1);
  EXPECT_EQ(events[3].parent, 0u);
  for (const auto& ev : events) {
    EXPECT_FALSE(ev.open);
    EXPECT_GE(ev.dur_us, 0.0);
  }
  // Children close no later than their parent; the parent covers them.
  EXPECT_GE(events[0].dur_us, events[1].dur_us);
  EXPECT_GE(events[1].dur_us, events[2].dur_us);
}

TEST(TracerTest, ExplicitEndIsIdempotent) {
  Tracer tracer;
  Span span = tracer.span("phase");
  span.end();
  span.end();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].open);
}

TEST(TracerTest, MoveTransfersOwnership) {
  Tracer tracer;
  {
    Span a = tracer.span("moved");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_FALSE(tracer.events()[0].open);
}

TEST(TracerTest, JsonExportIsValidAndNamesSpans) {
  Tracer tracer;
  {
    Span outer = tracer.span("pipeline");
    Span inner = tracer.span("pipeline.acquire");
  }
  const std::string json = tracer.to_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("pipeline.acquire"), std::string::npos);
  EXPECT_NE(json.find("\"dur_us\""), std::string::npos);
}

TEST(TracerTest, TableIndentsByDepth) {
  Tracer tracer;
  {
    Span outer = tracer.span("outer");
    Span inner = tracer.span("inner");
  }
  const std::string table = tracer.to_table();
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("  inner"), std::string::npos);
}

TEST(TracerTest, ClearResetsEventsAndStack) {
  Tracer tracer;
  { Span s = tracer.span("x"); }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  { Span s = tracer.span("y"); }
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].depth, 0);
}

TEST(TelemetryTest, PhaseSpanIsInertWhenDisabled) {
  Telemetry::set_enabled(false);
  Telemetry::reset();
  {
    Span span = phase_span("should-not-record");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Telemetry::tracer().size(), 0u);

  Telemetry::set_enabled(true);
  {
    Span span = phase_span("records");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(Telemetry::tracer().size(), 1u);
  Telemetry::set_enabled(false);
  Telemetry::reset();
}

TEST(TelemetryTest, ScopedLatencyObservesMicroseconds) {
  ShardedTailHistogram tail;
  { ScopedLatency lat(&tail); }
  { ScopedLatency noop(nullptr); }
  const auto snap = tail.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.max, 0.0);
}

}  // namespace
}  // namespace drlhmd::obs
