#include "obs/prom.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/metrics.hpp"

namespace drlhmd::obs {
namespace {

MetricsSnapshot populated_snapshot() {
  MetricsRegistry reg;
  reg.counter("drlhmd.runtime.verdicts", {{"verdict", "benign"}}).inc(10);
  reg.counter("drlhmd.runtime.verdicts", {{"verdict", "malware"}}).inc(3);
  reg.gauge("drlhmd.pipeline.progress").set(0.5);
  ShardedTailHistogram& tail =
      reg.tail("drlhmd.runtime.stage_tail_us", {{"stage", "predictor"}});
  for (int i = 0; i < 1000; ++i) tail.observe(5.0 + (i % 50));
  return reg.snapshot();
}

TEST(PromNameTest, SanitizesToExpositionCharset) {
  EXPECT_EQ(prom_name("drlhmd.runtime.stage_tail_us"),
            "drlhmd_runtime_stage_tail_us");
  EXPECT_EQ(prom_name("already_fine:name"), "already_fine:name");
  EXPECT_EQ(prom_name("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(prom_name("has spaces-and-dashes"), "has_spaces_and_dashes");
}

TEST(PromExportTest, PopulatedSnapshotPassesLint) {
  const std::string text = to_prometheus(populated_snapshot());
  std::string error;
  EXPECT_TRUE(prom_lint(text, &error)) << error << "\n" << text;

  // All three metric families present with their exposition types.
  EXPECT_NE(text.find("# TYPE drlhmd_runtime_verdicts counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE drlhmd_pipeline_progress gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE drlhmd_runtime_stage_tail_us summary"),
            std::string::npos);
  // Tails are the one latency recorder: nothing exports as a histogram.
  EXPECT_EQ(text.find(" histogram\n"), std::string::npos);
  // Labeled series and summary quantiles.
  EXPECT_NE(text.find("drlhmd_runtime_verdicts{verdict=\"benign\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("{stage=\"predictor\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("drlhmd_runtime_stage_tail_us_count"),
            std::string::npos);
}

TEST(PromExportTest, EmptyTailExportsNonFiniteLiterals) {
  // An empty tail histogram has NaN quantiles — the exposition format spells
  // that "NaN", and the linter must accept it.
  MetricsRegistry reg;
  reg.tail("drlhmd.test.empty_tail_us");
  reg.gauge("drlhmd.test.pos").set(std::numeric_limits<double>::infinity());
  reg.gauge("drlhmd.test.neg").set(-std::numeric_limits<double>::infinity());
  const std::string text = to_prometheus(reg.snapshot());
  std::string error;
  EXPECT_TRUE(prom_lint(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("quantile=\"0.5\"} NaN"), std::string::npos);
  EXPECT_NE(text.find("drlhmd_test_pos +Inf"), std::string::npos);
  EXPECT_NE(text.find("drlhmd_test_neg -Inf"), std::string::npos);
}

TEST(PromExportTest, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("drlhmd.test.weird", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = to_prometheus(reg.snapshot());
  std::string error;
  EXPECT_TRUE(prom_lint(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(PromExportTest, TypeLineEmittedOncePerLabeledFamily) {
  const std::string text = to_prometheus(populated_snapshot());
  // Two verdict label sets share one family: exactly one TYPE line.
  const std::string needle = "# TYPE drlhmd_runtime_verdicts counter";
  const std::size_t first = text.find(needle);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(needle, first + 1), std::string::npos);
}

TEST(PromLintTest, AcceptsCommentsBlanksAndTimestamps) {
  const std::string text =
      "# HELP metric_a something\n"
      "# TYPE metric_a counter\n"
      "metric_a 1\n"
      "\n"
      "# TYPE metric_b gauge\n"
      "metric_b{x=\"y\"} 2.5 1712345678901\n";
  std::string error;
  EXPECT_TRUE(prom_lint(text, &error)) << error;
}

TEST(PromLintTest, RejectsMalformedDocuments) {
  std::string error;
  // Sample with no preceding TYPE declaration.
  EXPECT_FALSE(prom_lint("orphan_metric 1\n", &error));
  EXPECT_NE(error.find("no preceding TYPE"), std::string::npos);
  // Invalid metric name.
  EXPECT_FALSE(prom_lint("# TYPE bad-name counter\nbad-name 1\n", &error));
  // Unknown type keyword.
  EXPECT_FALSE(prom_lint("# TYPE m widget\nm 1\n", &error));
  // Duplicate TYPE line.
  EXPECT_FALSE(
      prom_lint("# TYPE m counter\n# TYPE m counter\nm 1\n", &error));
  EXPECT_NE(error.find("duplicate TYPE"), std::string::npos);
  // Unparsable value.
  EXPECT_FALSE(prom_lint("# TYPE m gauge\nm banana\n", &error));
  // Bad escape in a label value.
  EXPECT_FALSE(prom_lint("# TYPE m gauge\nm{l=\"a\\q\"} 1\n", &error));
  // Unterminated label block.
  EXPECT_FALSE(prom_lint("# TYPE m gauge\nm{l=\"v\" 1\n", &error));
  // Malformed timestamp.
  EXPECT_FALSE(prom_lint("# TYPE m gauge\nm 1 12.5\n", &error));
}

TEST(PromLintTest, ResolvesChildSeriesThroughFamilyType) {
  // _bucket/_sum/_count ride on the parent histogram/summary TYPE...
  std::string error;
  EXPECT_TRUE(prom_lint("# TYPE lat histogram\n"
                        "lat_bucket{le=\"+Inf\"} 3\n"
                        "lat_sum 12\n"
                        "lat_count 3\n",
                        &error))
      << error;
  // ...but not on a counter family.
  EXPECT_FALSE(prom_lint("# TYPE lat counter\nlat_sum 12\n", &error));
}

}  // namespace
}  // namespace drlhmd::obs
