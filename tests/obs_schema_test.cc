#include "psc/obs/report.h"

#include <string>

#include "gtest/gtest.h"
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
  const Status status = obs::ValidateRunReportJson(report.ToJson());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ObsSchemaTest, EmptyReportValidates) {
  const Status status =
      obs::ValidateRunReportJson(obs::RunReport::Capture().ToJson());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

/// Asserts `json` fails validation with a message naming `defect`, so a
/// negative fixture cannot pass by failing for some other reason.
void ExpectRejectedFor(const std::string& json, const std::string& defect) {
  const Status status = obs::ValidateRunReportJson(json);
  EXPECT_FALSE(status.ok()) << json;
  EXPECT_NE(status.message().find(defect), std::string::npos)
      << "expected a '" << defect << "' error, got " << status.ToString();
}

TEST_F(ObsSchemaTest, MinimalHandWrittenDocumentValidates) {
  const std::string minimal =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  const Status status = obs::ValidateRunReportJson(minimal);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ObsSchemaTest, RejectsSchemaV1Documents) {
  // The v1 layout (no p95, no span tid/scope, no queries section) is no
  // longer accepted, even when it is otherwise well formed.
  const std::string v1_minimal =
      "{\"schema_version\":1,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0}";
  ExpectRejectedFor(v1_minimal, "unsupported schema_version 1");
  const std::string v1_with_queries =
      "{\"schema_version\":1,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  ExpectRejectedFor(v1_with_queries, "unsupported schema_version 1");
}

TEST_F(ObsSchemaTest, RejectsMalformedDocuments) {
  // Not JSON at all.
  EXPECT_FALSE(obs::ValidateRunReportJson("not json").ok());
  // Not an object.
  ExpectRejectedFor("[1,2]", "not an object");
  // Missing schema_version.
  ExpectRejectedFor(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
      "\"spans\":[],\"spans_dropped\":0,\"queries\":{}}",
      "missing numeric schema_version");
  // Unsupported schema_version.
  ExpectRejectedFor(
      "{\"schema_version\":99,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,\"queries\":{}}",
      "unsupported schema_version 99");
  // Negative counter.
  ExpectRejectedFor(
      "{\"schema_version\":2,\"counters\":{\"c\":-1},"
      "\"gauges\":{},\"histograms\":{},\"spans\":[],"
      "\"spans_dropped\":0,\"queries\":{}}",
      "counter 'c' negative");
  // Counter value of the wrong JSON type.
  ExpectRejectedFor(
      "{\"schema_version\":2,\"counters\":{\"c\":\"five\"},"
      "\"gauges\":{},\"histograms\":{},\"spans\":[],"
      "\"spans_dropped\":0,\"queries\":{}}",
      "counter 'c' not numeric");
}

TEST_F(ObsSchemaTest, RejectsHistogramInvariantViolations) {
  // min > max is impossible for a real histogram.
  const std::string min_above_max =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"count\":2,\"sum\":10,\"min\":8,\"max\":2,"
      "\"mean\":5,\"p50\":5,\"p90\":8,\"p95\":8,\"p99\":8}},"
      "\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  ExpectRejectedFor(min_above_max, "has min > max");
  // A sum without any samples.
  const std::string sum_without_samples =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"count\":0,\"sum\":10,\"min\":0,\"max\":0,"
      "\"mean\":0,\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0}},"
      "\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  ExpectRejectedFor(sum_without_samples, "has sum without samples");
}

TEST_F(ObsSchemaTest, RejectsDanglingSpanParents) {
  const std::string dangling_parent =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},"
      "\"spans\":[{\"id\":1,\"parent\":99,\"name\":\"s\",\"depth\":1,"
      "\"start_us\":0,\"duration_us\":1,\"tid\":1,\"scope\":0}],"
      "\"spans_dropped\":0,\"queries\":{}}";
  ExpectRejectedFor(dangling_parent, "span parent 99 not present");
  // The same link is tolerated when spans were dropped: the parent may
  // simply have fallen out of the buffer.
  const std::string dangling_but_truncated =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},"
      "\"spans\":[{\"id\":1,\"parent\":99,\"name\":\"s\",\"depth\":1,"
      "\"start_us\":0,\"duration_us\":1,\"tid\":1,\"scope\":0}],"
      "\"spans_dropped\":3,\"queries\":{}}";
  const Status status = obs::ValidateRunReportJson(dangling_but_truncated);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ObsSchemaTest, SchemaV2RequiresQueriesSection) {
  // Documents must carry the queries section, even empty.
  const std::string v2_minimal =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  EXPECT_TRUE(obs::ValidateRunReportJson(v2_minimal).ok());
  const std::string v2_missing_queries =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0}";
  ExpectRejectedFor(v2_missing_queries, "missing queries object");
}

TEST_F(ObsSchemaTest, SchemaV2ValidatesPerQueryEntries) {
  const std::string with_query =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,"
      "\"queries\":{\"q1:answer\":{\"id\":1,\"counters\":{\"c\":3},"
      "\"gauges\":{},\"histograms\":{},\"spans\":2,\"spans_dropped\":0,"
      "\"trip\":\"deadline\"}}}";
  EXPECT_TRUE(obs::ValidateRunReportJson(with_query).ok());
  // A query entry without its trip string is malformed.
  const std::string missing_trip =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},\"spans\":[],\"spans_dropped\":0,"
      "\"queries\":{\"q1:answer\":{\"id\":1,\"counters\":{},"
      "\"gauges\":{},\"histograms\":{},\"spans\":0,\"spans_dropped\":0}}}";
  EXPECT_FALSE(obs::ValidateRunReportJson(missing_trip).ok());
}

TEST_F(ObsSchemaTest, SchemaV2RequiresSpanThreadAndScopeFields) {
  // Spans must carry tid/scope.
  const std::string v2_span_without_tid =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},"
      "\"spans\":[{\"id\":1,\"parent\":-1,\"name\":\"s\",\"depth\":0,"
      "\"start_us\":0,\"duration_us\":1}],"
      "\"spans_dropped\":0,\"queries\":{}}";
  EXPECT_FALSE(obs::ValidateRunReportJson(v2_span_without_tid).ok());
  const std::string v2_span_complete =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{},"
      "\"spans\":[{\"id\":1,\"parent\":-1,\"name\":\"s\",\"depth\":0,"
      "\"start_us\":0,\"duration_us\":1,\"tid\":1,\"scope\":0}],"
      "\"spans_dropped\":0,\"queries\":{}}";
  EXPECT_TRUE(obs::ValidateRunReportJson(v2_span_complete).ok());
}

TEST_F(ObsSchemaTest, SchemaV2RequiresP95) {
  const std::string v2_histogram_without_p95 =
      "{\"schema_version\":2,\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,"
      "\"mean\":4,\"p50\":4,\"p90\":4,\"p99\":4}},"
      "\"spans\":[],\"spans_dropped\":0,\"queries\":{}}";
  EXPECT_FALSE(obs::ValidateRunReportJson(v2_histogram_without_p95).ok());
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
