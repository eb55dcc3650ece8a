// Span self-time and percentile helpers of the benchmark.
#include <gtest/gtest.h>

#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {
namespace {

Span span(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // run [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild inside the second: the root's children cover [10,50).
  const std::vector<Span> spans{
      span("run.x", 0, 100, -1),
      span("a.one", 10, 30, 0),
      span("b.two", 20, 50, 0),
      span("c.three", 25, 35, 2),
  };
  const std::vector<int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, ClipsChildrenToParent) {
  const std::vector<Span> spans{
      span("run.x", 0, 10, -1),
      span("a.one", 5, 20, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 5);
}

TEST(SelfTime, LedgerAttributesByLayerAndReportsUnattributed) {
  const std::vector<Span> spans{
      span("run.x", 0, 100, -1),
      span("sim.run", 0, 80, 0),
      span("runtime.step", 10, 70, 1),
  };
  const LayerLedger ledger = layer_ledger(spans);
  EXPECT_EQ(ledger.root_ns, 100);
  EXPECT_EQ(ledger.unattributed_ns, 20);
  EXPECT_DOUBLE_EQ(ledger.unattributed_share(), 0.2);
  EXPECT_DOUBLE_EQ(ledger.share("sim"), 0.2);
  EXPECT_DOUBLE_EQ(ledger.share("runtime"), 0.6);
  EXPECT_DOUBLE_EQ(ledger.share("media"), 0.0);
}

TEST(SpanLog, NestsAndMergesPerThread) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "run.x", 7);
    ScopedSpan inner(&log, "sim.y", 7);
  }
  ScopedSpan off(nullptr, "run.ignored");
  const std::vector<Span> spans = log.merged();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].group, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5}, 99), 5.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({10, 20, 30, 40, 50}, 90), 46.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

}  // namespace
}  // namespace e2ebench
