#include "psc/obs/report.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"

namespace psc {
namespace {

class ObsSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Options options;
    options.trace_enabled = true;
    obs::SetOptions(options);
    obs::GlobalTrace().Clear();
    obs::GlobalMetrics().Reset();
  }
  void TearDown() override {
    obs::SetOptions(obs::Options{});
    obs::GlobalTrace().Clear();
    obs::GlobalMetrics().Reset();
  }
};

/// Parses `json` into `document` and asserts the schema-v2 top-level
/// layout: every key tools/check_metrics_schema.py requires, with its JSON
/// type. The validator's rejection rules (metric prefixes, histogram
/// invariants, span parents, query ids) are pinned by its own fixtures in
/// tools/test_check_metrics_schema.py.
void ParseReportLayout(const std::string& json, obs::JsonValue* document) {
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* version = parsed->Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number(), obs::kRunReportSchemaVersion);
  for (const char* key : {"counters", "gauges", "histograms", "queries"}) {
    ASSERT_NE(parsed->Find(key), nullptr) << key;
    EXPECT_TRUE(parsed->Find(key)->is_object()) << key;
  }
  ASSERT_NE(parsed->Find("spans"), nullptr);
  EXPECT_TRUE(parsed->Find("spans")->is_array());
  ASSERT_NE(parsed->Find("spans_dropped"), nullptr);
  EXPECT_TRUE(parsed->Find("spans_dropped")->is_number());
  *document = std::move(*parsed);
}

TEST_F(ObsSchemaTest, CapturedReportValidates) {
  obs::GlobalMetrics().GetCounter("obs_test.schema_counter").Increment(3);
  obs::GlobalMetrics().GetGauge("obs_test.schema_gauge").Set(12);
  obs::GlobalMetrics().GetHistogram("obs_test.schema_histogram").Record(7);
  {
    obs::TraceSpan root("obs_test.schema_root");
    obs::TraceSpan child("obs_test.schema_child");
    (void)child;
    (void)root;
  }
  const obs::RunReport report = obs::RunReport::Capture();
  obs::JsonValue document;
  ASSERT_NO_FATAL_FAILURE(ParseReportLayout(report.ToJson(), &document));
  const obs::JsonValue* histogram =
      document.Find("histograms")->Find("obs_test.schema_histogram");
  ASSERT_NE(histogram, nullptr);
  for (const char* field :
       {"count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99"}) {
    ASSERT_NE(histogram->Find(field), nullptr) << field;
    EXPECT_TRUE(histogram->Find(field)->is_number()) << field;
  }
  const std::vector<obs::JsonValue>& spans =
      document.Find("spans")->array();
  ASSERT_EQ(spans.size(), 2u);
  for (const obs::JsonValue& span : spans) {
    for (const char* field : {"id", "parent", "depth", "start_us",
                              "duration_us", "tid", "scope"}) {
      ASSERT_NE(span.Find(field), nullptr) << field;
      EXPECT_TRUE(span.Find(field)->is_number()) << field;
    }
  }
  // The child completes first; its parent link names the root's id.
  EXPECT_EQ(spans[0].Find("parent")->number(), spans[1].Find("id")->number());
  EXPECT_EQ(spans[1].Find("parent")->number(), -1.0);
}

TEST_F(ObsSchemaTest, EmptyReportValidates) {
  obs::JsonValue document;
  ASSERT_NO_FATAL_FAILURE(
      ParseReportLayout(obs::RunReport::Capture().ToJson(), &document));
  EXPECT_TRUE(document.Find("spans")->array().empty());
  EXPECT_EQ(document.Find("spans_dropped")->number(), 0.0);
  const obs::JsonValue* dropped =
      document.Find("counters")->Find("trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->number(), 0.0);
}

TEST_F(ObsSchemaTest, TableRendersEveryInstrumentName) {
  obs::GlobalMetrics().GetCounter("obs_test.table_counter").Increment();
  obs::GlobalMetrics().GetGauge("obs_test.table_gauge").Set(5);
  obs::GlobalMetrics().GetHistogram("obs_test.table_histogram").Record(1);
  const std::string table = obs::RunReport::Capture().ToTable();
  EXPECT_NE(table.find("obs_test.table_counter"), std::string::npos);
  EXPECT_NE(table.find("obs_test.table_gauge"), std::string::npos);
  EXPECT_NE(table.find("obs_test.table_histogram"), std::string::npos);
}

}  // namespace
}  // namespace psc
