// End-to-end check that the solver stack actually feeds the metrics
// registry: running the general consistency checker on a satisfiable
// collection must leave search-effort counters behind, and the captured
// run report must carry them.

#include "gtest/gtest.h"
#include "psc/consistency/general_consistency.h"
#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/report.h"
#include "psc/obs/trace.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetOptions(obs::Options{});
    obs::GlobalTrace().Clear();
    obs::GlobalMetrics().Reset();
  }
  void TearDown() override {
    obs::SetOptions(obs::Options{});
    obs::GlobalTrace().Clear();
    obs::GlobalMetrics().Reset();
  }
};

#if PSC_OBS_ENABLED

TEST_F(ObsIntegrationTest, ConsistencyCheckExpandsNodes) {
  // Known-satisfiable identity collection: {1} (or {0,1,2} etc.) is a
  // possible world for both sources at bounds 1/2.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto report = GeneralConsistencyChecker().Check(collection);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);

  const obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  EXPECT_EQ(metrics.CounterValue("consistency.checks"), 1u);
  EXPECT_GT(metrics.CounterValue("consistency.nodes_expanded"), 0u);
}

TEST_F(ObsIntegrationTest, ConsistencyCheckTimesItsSpan) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1/2")});
  ASSERT_TRUE(GeneralConsistencyChecker().Check(collection).ok());
  // The consistency.check span always times its scope, traced or not.
  EXPECT_GE(
      obs::GlobalMetrics().GetHistogram("consistency.check").count(), 1u);
}

TEST_F(ObsIntegrationTest, TracedRunBuffersSolverSpans) {
  obs::Options options;
  options.trace_enabled = true;
  obs::SetOptions(options);
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  ASSERT_TRUE(GeneralConsistencyChecker().Check(collection).ok());
  const std::vector<obs::SpanRecord> spans = obs::GlobalTrace().Snapshot();
  bool found_check = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "consistency.check") found_check = true;
  }
  EXPECT_TRUE(found_check);
}

TEST_F(ObsIntegrationTest, CapturedSolverReportValidates) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  ASSERT_TRUE(GeneralConsistencyChecker().Check(collection).ok());
  const std::string json = obs::RunReport::Capture().ToJson();
  EXPECT_TRUE(obs::ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("consistency.checks"), std::string::npos);
}

TEST_F(ObsIntegrationTest, RuntimeSwitchSilencesSolverCounters) {
  obs::Options off;
  off.enabled = false;
  obs::SetOptions(off);
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  ASSERT_TRUE(GeneralConsistencyChecker().Check(collection).ok());
  EXPECT_EQ(obs::GlobalMetrics().CounterValue("consistency.checks"), 0u);
  EXPECT_EQ(
      obs::GlobalMetrics().CounterValue("consistency.nodes_expanded"), 0u);
}

#else  // PSC_OBS_ENABLED

TEST_F(ObsIntegrationTest, SolverRunsLeaveNoCountersWhenCompiledOut) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto report = GeneralConsistencyChecker().Check(collection);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_EQ(obs::GlobalMetrics().CounterValue("consistency.checks"), 0u);
  EXPECT_EQ(
      obs::GlobalMetrics().CounterValue("consistency.nodes_expanded"), 0u);
}

#endif  // PSC_OBS_ENABLED

}  // namespace
}  // namespace psc
