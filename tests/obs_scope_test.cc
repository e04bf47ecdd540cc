#include "psc/obs/scope.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/limits/budget.h"
#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/report.h"
#include "psc/obs/trace.h"

namespace psc {
namespace {

// Only referenced when instrumentation is compiled in.
[[maybe_unused]] uint64_t CounterValue(const obs::ScopeSnapshot& snapshot,
                                       const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

// Scopes mirror the process-global instruments; each test starts from
// default options and clean global state so ordering does not matter.
class ObsScopeTest : public ::testing::Test {
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

TEST_F(ObsScopeTest, NullScopeIsInactiveAndSnapshotsEmpty) {
  const obs::Scope scope;
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(scope.id(), 0u);
  EXPECT_EQ(scope.name(), "");
  const obs::ScopeSnapshot snapshot = scope.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.spans.empty());
  EXPECT_EQ(snapshot.trip_reason, "");
}

TEST_F(ObsScopeTest, CreateAssignsUniqueIdsAndName) {
  const obs::Scope first = obs::Scope::Create("scope_test.first");
  const obs::Scope second = obs::Scope::Create("scope_test.second");
  EXPECT_TRUE(first.active());
  EXPECT_EQ(first.name(), "scope_test.first");
  EXPECT_GT(first.id(), 0u);
  EXPECT_NE(first.id(), second.id());
  // Copies share state.
  const obs::Scope copy = first;
  EXPECT_EQ(copy.id(), first.id());
}

TEST_F(ObsScopeTest, GuardInstallsAndRestoresCurrentScope) {
  EXPECT_FALSE(obs::CurrentScope().active());
  const obs::Scope scope = obs::Scope::Create("scope_test.install");
  {
    const obs::ScopeGuard guard(scope);
    EXPECT_EQ(obs::CurrentScope().id(), scope.id());
  }
  EXPECT_FALSE(obs::CurrentScope().active());
}

TEST_F(ObsScopeTest, NullGuardLeavesInstalledScopeAlone) {
  const obs::Scope outer = obs::Scope::Create("scope_test.outer");
  const obs::ScopeGuard outer_guard(outer);
  {
    // Solver code installs unconditionally; a null scope must not mask
    // the query scope already on the thread.
    const obs::ScopeGuard null_guard((obs::Scope()));
    EXPECT_EQ(obs::CurrentScope().id(), outer.id());
  }
  EXPECT_EQ(obs::CurrentScope().id(), outer.id());
}

#if PSC_OBS_ENABLED

TEST_F(ObsScopeTest, InstalledScopeAccumulatesMetricDeltas) {
  const obs::Scope scope = obs::Scope::Create("scope_test.deltas");
  PSC_OBS_COUNTER_INC("scope_test.before");  // outside: global only
  {
    const obs::ScopeGuard guard(scope);
    PSC_OBS_COUNTER_ADD("scope_test.inside", 3);
    PSC_OBS_COUNTER_ADD("scope_test.inside", 2);
  }
  PSC_OBS_COUNTER_INC("scope_test.after");

  const obs::ScopeSnapshot snapshot = scope.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "scope_test.inside"), 5u);
  EXPECT_EQ(CounterValue(snapshot, "scope_test.before"), 0u);
  EXPECT_EQ(CounterValue(snapshot, "scope_test.after"), 0u);
  // The global registry saw everything: scopes are a delta view on top.
  EXPECT_EQ(obs::GlobalMetrics().GetCounter("scope_test.inside").value(),
            5u);
}

TEST_F(ObsScopeTest, NestedGuardsAttributeToTheInnermostScope) {
  const obs::Scope outer = obs::Scope::Create("scope_test.nest_outer");
  const obs::Scope inner = obs::Scope::Create("scope_test.nest_inner");
  {
    const obs::ScopeGuard outer_guard(outer);
    PSC_OBS_COUNTER_INC("scope_test.nested");
    {
      const obs::ScopeGuard inner_guard(inner);
      PSC_OBS_COUNTER_ADD("scope_test.nested", 10);
    }
    PSC_OBS_COUNTER_INC("scope_test.nested");
  }
  // Attribution is exclusive: the innermost scope owns the delta.
  EXPECT_EQ(CounterValue(outer.Snapshot(), "scope_test.nested"), 2u);
  EXPECT_EQ(CounterValue(inner.Snapshot(), "scope_test.nested"), 10u);
}

TEST_F(ObsScopeTest, SpansRecordedUnderScopeLandInItsBuffer) {
  obs::Options options;
  options.trace_enabled = true;
  obs::SetOptions(options);
  const obs::Scope scope = obs::Scope::Create("scope_test.spans");
  {
    const obs::ScopeGuard guard(scope);
    obs::TraceSpan span("scope_test.span");
    (void)span;
  }
  const obs::ScopeSnapshot snapshot = scope.Snapshot();
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_EQ(snapshot.spans[0].name, "scope_test.span");
  EXPECT_EQ(snapshot.spans[0].scope_id, scope.id());
  // The global buffer received the same record.
  ASSERT_EQ(obs::GlobalTrace().Snapshot().size(), 1u);
}

#endif  // PSC_OBS_ENABLED

TEST_F(ObsScopeTest, BudgetTripAttributesToTheCreatingScope) {
  const obs::Scope scope = obs::Scope::Create("scope_test.trip");
  limits::Budget budget;
  {
    const obs::ScopeGuard guard(scope);
    // The budget captures the installed scope at construction...
    budget = limits::Budget::WithNodeBudget(5);
  }
  // ...so the trip attributes to it even when no scope (or another
  // query's) is installed on the observing thread.
  EXPECT_TRUE(budget.Charge(2));
  EXPECT_FALSE(budget.Charge(4));  // 6 > 5 nodes: trips
  EXPECT_EQ(budget.reason(), limits::StopReason::kNodeBudget);
  EXPECT_EQ(scope.Snapshot().trip_reason, "node-budget");
}

TEST_F(ObsScopeTest, FirstTripReasonWins) {
  const obs::Scope scope = obs::Scope::Create("scope_test.first_trip");
  scope.SetTripReason("deadline");
  scope.SetTripReason("node-budget");
  EXPECT_EQ(scope.Snapshot().trip_reason, "deadline");
}

TEST_F(ObsScopeTest, CaptureTraceContextCarriesTheActiveScope) {
  const obs::Scope scope = obs::Scope::Create("scope_test.context");
  obs::TraceContext context;
  {
    const obs::ScopeGuard guard(scope);
    context = obs::CaptureTraceContext();
  }
  EXPECT_EQ(context.scope.id(), scope.id());
  EXPECT_FALSE(obs::CurrentScope().active());
  {
    const obs::TraceContextGuard guard(context);
    EXPECT_EQ(obs::CurrentScope().id(), scope.id());
  }
  EXPECT_FALSE(obs::CurrentScope().active());
}

TEST_F(ObsScopeTest, RunReportCarriesPerQuerySectionAndValidates) {
  const obs::Scope scope = obs::Scope::Create("scope_test.report");
  {
    const obs::ScopeGuard guard(scope);
    PSC_OBS_COUNTER_ADD("scope_test.report_counter", 7);
  }
  scope.SetTripReason("deadline");

  const obs::RunReport report = obs::RunReport::Capture();
  bool found = false;
  for (const obs::ScopeSnapshot& query : report.queries) {
    if (query.id != scope.id()) continue;
    found = true;
    EXPECT_EQ(query.name, "scope_test.report");
    EXPECT_EQ(query.trip_reason, "deadline");
#if PSC_OBS_ENABLED
    EXPECT_EQ(CounterValue(query, "scope_test.report_counter"), 7u);
#endif
  }
  EXPECT_TRUE(found);

  // The serialized report carries the same section under the scope's name.
  auto document = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const obs::JsonValue* queries = document->Find("queries");
  ASSERT_NE(queries, nullptr);
  const obs::JsonValue* section = queries->Find("scope_test.report");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("id")->number(), static_cast<double>(scope.id()));
  EXPECT_EQ(section->Find("trip")->string(), "deadline");
}

TEST_F(ObsScopeTest, DroppedScopesVanishFromCapture) {
  uint64_t dropped_id = 0;
  {
    const obs::Scope ephemeral = obs::Scope::Create("scope_test.ephemeral");
    dropped_id = ephemeral.id();
  }
  for (const obs::ScopeSnapshot& query :
       obs::CaptureScopeSnapshots()) {
    EXPECT_NE(query.id, dropped_id);
  }
}

}  // namespace
}  // namespace psc
