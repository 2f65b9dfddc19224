#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "obs/scope.hpp"
#include "serve/json.hpp"

namespace mtdgrid::obs {
namespace {

TEST(TraceTest, SpanRecordsIntoActiveCapture) {
  SpanCapture capture;
  {
    ScopedContext scope({nullptr, &capture});
    Span outer("outer", "test");
    { Span inner("inner", "test"); }
  }
  { Span after("after", "test"); }  // no capture active: not recorded
  const std::vector<TraceEvent> events = capture.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close (and record) inner-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GE(events[0].dur_us, 0.0);
  // The outer span encloses the inner one on the timeline.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
}

TEST(TraceTest, DisabledGlobalTracerRecordsNothing) {
  Tracer::global().set_enabled(false);
  Tracer::global().drain();  // discard anything left by earlier tests
  { Span span("ignored", "test"); }
  EXPECT_TRUE(Tracer::global().drain().empty());
}

TEST(TraceTest, GlobalTracerCollectsAcrossPoolThreads) {
  Tracer::global().drain();
  Tracer::global().set_enabled(true);
  constexpr std::size_t kTasks = 64;
  core::parallel_for(kTasks, [](std::size_t) {
    Span span("task", "test");
  });
  Tracer::global().set_enabled(false);
  const std::vector<TraceEvent> events = Tracer::global().drain();
  ASSERT_EQ(events.size(), kTasks);
  for (const TraceEvent& e : events) EXPECT_STREQ(e.name, "task");
  // drain() sorts by start time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  // A second drain finds the buffers empty.
  EXPECT_TRUE(Tracer::global().drain().empty());
}

TEST(TraceTest, CaptureAndGlobalTracerBothReceiveSpans) {
  Tracer::global().drain();
  Tracer::global().set_enabled(true);
  SpanCapture capture;
  {
    ScopedContext scope({nullptr, &capture});
    Span span("both", "test");
  }
  Tracer::global().set_enabled(false);
  EXPECT_EQ(capture.events().size(), 1u);
  EXPECT_EQ(Tracer::global().drain().size(), 1u);
}

TEST(TraceTest, CurrentTidIsStablePerThread) {
  const std::uint32_t here = Tracer::current_tid();
  EXPECT_EQ(Tracer::current_tid(), here);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  std::vector<TraceEvent> events;
  events.push_back({"alpha", "cat_a", 0, 1.5, 2.25});
  events.push_back({"beta", "cat_b", 3, 10.0, 0.5});
  std::ostringstream out;
  write_chrome_trace(out, events);
  const serve::Json doc = serve::Json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const serve::Json* list = doc.find("traceEvents");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->as_array().size(), 2u);
  const serve::Json& first = list->as_array()[0];
  EXPECT_EQ(first.find("name")->as_string(), "alpha");
  EXPECT_EQ(first.find("cat")->as_string(), "cat_a");
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(first.find("ts")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(first.find("dur")->as_number(), 2.25);
  EXPECT_EQ(first.find("pid")->as_number(), 1);
  const serve::Json& second = list->as_array()[1];
  EXPECT_EQ(second.find("tid")->as_number(), 3);
}

TEST(TraceTest, ChromeTraceEmptyEventListStillParses) {
  std::ostringstream out;
  write_chrome_trace(out, {});
  const serve::Json doc = serve::Json::parse(out.str());
  ASSERT_TRUE(doc.find("traceEvents") != nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->as_array().empty());
}

}  // namespace
}  // namespace mtdgrid::obs
