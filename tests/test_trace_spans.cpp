// Tracer tests: zero-cost-when-disabled contract, span recording, the
// Phase call feeding histogram + field + span from one measurement, ring
// wrap, multi-threaded buffers, and the Chrome trace-event JSON export.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coorm/common/trace.hpp"

using namespace coorm;

namespace {

/// Tracing state is process-global; serialize every test through this
/// fixture so enable/reset calls do not leak between cases.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable();
    trace::reset();
  }
  void TearDown() override {
    trace::disable();
    trace::reset();
  }
};

std::size_t countNamed(const std::vector<trace::SpanEvent>& events,
                       const char* name) {
  std::size_t n = 0;
  for (const trace::SpanEvent& e : events) {
    if (std::string_view(e.name) == name) ++n;
  }
  return n;
}

}  // namespace

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  { trace::Span span("disabled_scope"); }
  trace::span("disabled_explicit", 1, 2);
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, ScopedSpanRecordsNameAndDuration) {
  trace::enable();
  const std::uint64_t before = metrics::nowNanos();
  { trace::Span span("scoped"); }
  const std::uint64_t after = metrics::nowNanos();
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "scoped");
  EXPECT_GE(events[0].startNs, before);
  EXPECT_LE(events[0].endNs, after);
  EXPECT_LE(events[0].startNs, events[0].endNs);
}

TEST_F(TraceTest, ExplicitSpanKeepsTimestamps) {
  trace::enable();
  trace::span("explicit", 100, 250);
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].startNs, 100u);
  EXPECT_EQ(events[0].endNs, 250u);
}

TEST_F(TraceTest, SpanOpenedWhileEnabledRecordsAfterDisable) {
  // The RAII span latches its name at construction; disabling mid-scope
  // must not lose the event (the dtor checks the latched name, not the
  // global flag).
  trace::enable();
  {
    trace::Span span("latched");
    trace::disable();
  }
  EXPECT_EQ(countNamed(trace::collect(), "latched"), 1u);
}

TEST_F(TraceTest, PhaseFeedsHistogramFieldAndSpanFromOneMeasurement) {
  trace::enable();
  const metrics::HistogramData before =
      metrics::snapshot()[metrics::Histo::kPassPruneUs];
  std::uint64_t us = 0;
  {
    const trace::Phase phase("phase", metrics::Histo::kPassPruneUs, &us);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const metrics::HistogramData after =
      metrics::snapshot()[metrics::Histo::kPassPruneUs];
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "phase");
  EXPECT_EQ(after.count - before.count, 1u);
  EXPECT_GE(us, 2000u);
  EXPECT_EQ(after.sum - before.sum, us);
  EXPECT_EQ((events[0].endNs - events[0].startNs) / 1000, us);
}

TEST_F(TraceTest, PhaseWithTracingOffRecordsTheSampleButNoSpan) {
  const std::uint64_t before =
      metrics::snapshot()[metrics::Histo::kPassPruneUs].count;
  { const trace::Phase phase("untraced", metrics::Histo::kPassPruneUs); }
  EXPECT_EQ(metrics::snapshot()[metrics::Histo::kPassPruneUs].count - before,
            1u);
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, ResetDropsEverything) {
  trace::enable();
  trace::span("gone", 1, 2);
  trace::reset();
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, RingKeepsTheNewestSpans) {
  trace::enable();
  constexpr std::size_t kOverfill = 20000;  // > the 16384 ring
  for (std::size_t i = 0; i < kOverfill; ++i) {
    trace::span("ring", i, i + 1);
  }
  const auto events = trace::collect();
  EXPECT_LT(events.size(), kOverfill);
  EXPECT_GT(events.size(), 0u);
  // The survivors are the newest: the very last span must be present.
  std::uint64_t maxStart = 0;
  for (const trace::SpanEvent& e : events) maxStart = std::max(maxStart, e.startNs);
  EXPECT_EQ(maxStart, kOverfill - 1);
}

TEST_F(TraceTest, ThreadsRecordIntoDistinctBuffers) {
  trace::enable();
  trace::span("main_thread", 1, 2);
  std::thread worker([] { trace::span("worker_thread", 3, 4); });
  worker.join();
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(countNamed(events, "main_thread"), 1u);
  EXPECT_EQ(countNamed(events, "worker_thread"), 1u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ChromeTraceJsonHasCompleteEvents) {
  trace::enable();
  trace::span("alpha", 1000, 3000);
  trace::span("beta", 2000, 2500);
  const std::string path = ::testing::TempDir() + "/coorm_trace_test.json";
  std::string error;
  ASSERT_TRUE(trace::writeChromeTrace(path, &error)) << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Rebased to the earliest start: alpha begins at ts 0 for 2 µs.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":2.000"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ChromeTraceFailsOnUnwritablePath) {
  std::string error;
  EXPECT_FALSE(trace::writeChromeTrace("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(TraceTest, EmptyTraceStillWritesValidSkeleton) {
  const std::string path = ::testing::TempDir() + "/coorm_trace_empty.json";
  std::string error;
  ASSERT_TRUE(trace::writeChromeTrace(path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "{\"traceEvents\":[]}\n");
  std::remove(path.c_str());
}
