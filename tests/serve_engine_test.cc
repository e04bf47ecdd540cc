// Deterministic engine tests (serve/engine.h) in manual-dispatch mode
// (dispatch_threads = 0, owner pumps with PumpOne): verb round-trips,
// warm-state reuse, answer batching and dedup, round-robin fairness,
// admission control and the shutdown drain contract.

#include "psc/serve/engine.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/serve/protocol.h"
#include "test_util.h"

namespace psc::serve {
namespace {

/// Two half-sound mirrors of R (the Example 5.1 shape).
constexpr const char* kCollectionText =
    "source S1 {\n"
    "  view: V1(x) <- R(x)\n"
    "  completeness: 0.5\n"
    "  soundness: 0.5\n"
    "  facts: V1(\"a\"), V1(\"b\")\n"
    "}\n"
    "source S2 {\n"
    "  view: V2(x) <- R(x)\n"
    "  completeness: 0.5\n"
    "  soundness: 0.5\n"
    "  facts: V2(\"b\"), V2(\"c\")\n"
    "}\n";

EngineOptions ManualOptions() {
  EngineOptions options;
  options.dispatch_threads = 0;
  options.solver_threads = 1;
  return options;
}

std::string LoadLine(const std::string& collection = "") {
  JsonObjectWriter writer;
  writer.String("verb", "load");
  if (!collection.empty()) writer.String("collection", collection);
  writer.String("text", kCollectionText);
  return writer.Finish();
}

std::string AnswerLine(const std::string& query, const std::string& id = "") {
  JsonObjectWriter writer;
  writer.String("verb", "answer");
  if (!id.empty()) writer.String("id", id);
  writer.String("query", query);
  return writer.Finish();
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

class ServeEngineTest : public ::testing::Test {
 protected:
  ServeEngineTest() : engine_(ManualOptions()) {}

  void Load() { ASSERT_TRUE(IsOk(engine_.Call(0, LoadLine()))); }

  Engine engine_;
};

TEST_F(ServeEngineTest, LoadCheckAnswerRoundTrip) {
  const std::string loaded = engine_.Call(0, LoadLine());
  ASSERT_TRUE(IsOk(loaded)) << loaded;
  EXPECT_NE(loaded.find("\"sources\":2"), std::string::npos) << loaded;

  const std::string checked = engine_.Call(0, "{\"verb\":\"check\"}");
  ASSERT_TRUE(IsOk(checked)) << checked;
  EXPECT_NE(checked.find("\"verdict\":"), std::string::npos) << checked;

  const std::string answered =
      engine_.Call(0, AnswerLine("Ans(x) <- R(x)", "q1"));
  ASSERT_TRUE(IsOk(answered)) << answered;
  EXPECT_NE(answered.find("\"id\":\"q1\""), std::string::npos) << answered;
  EXPECT_NE(answered.find("\"confidences\":"), std::string::npos) << answered;
}

TEST_F(ServeEngineTest, WarmRepeatHitsTheAnswerCache) {
  Load();
  const std::string first = engine_.Call(0, AnswerLine("Ans(x) <- R(x)"));
  ASSERT_TRUE(IsOk(first)) << first;
  EXPECT_NE(first.find("\"from_cache\":false"), std::string::npos) << first;
  const std::string repeat = engine_.Call(0, AnswerLine("Ans(x) <- R(x)"));
  ASSERT_TRUE(IsOk(repeat)) << repeat;
  // The resident system's answer cache survives between requests — the
  // entire point of serving warm.
  EXPECT_NE(repeat.find("\"from_cache\":true"), std::string::npos) << repeat;
}

TEST_F(ServeEngineTest, ApplyDeltaInvalidatesAndAdvancesGeneration) {
  Load();
  const std::string before = engine_.Call(0, AnswerLine("Ans(x) <- R(x)"));
  ASSERT_TRUE(IsOk(before));

  JsonObjectWriter delta;
  delta.String("verb", "apply-delta");
  delta.String("script", "+ S1(\"c\")");
  const std::string applied = engine_.Call(0, delta.Finish());
  ASSERT_TRUE(IsOk(applied)) << applied;
  EXPECT_NE(applied.find("\"inserted\":1"), std::string::npos) << applied;

  const std::string after = engine_.Call(0, AnswerLine("Ans(x) <- R(x)"));
  ASSERT_TRUE(IsOk(after));
  // The mutation must invalidate the cached answer, not serve it stale.
  EXPECT_NE(after.find("\"from_cache\":false"), std::string::npos) << after;
  EXPECT_NE(after, before);
}

TEST_F(ServeEngineTest, UnknownCollectionIsNotFound) {
  const std::string response =
      engine_.Call(0, "{\"verb\":\"check\",\"collection\":\"nope\"}");
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(response.find("nope"), std::string::npos) << response;
}

TEST_F(ServeEngineTest, ParseErrorsComeBackAsErrorResponses) {
  const std::string malformed = engine_.Call(0, "{\"verb\":");
  EXPECT_NE(malformed.find("\"ok\":false"), std::string::npos) << malformed;
  const std::string unknown = engine_.Call(0, "{\"verb\":\"frobnicate\"}");
  EXPECT_NE(unknown.find("unknown verb"), std::string::npos) << unknown;
}

TEST_F(ServeEngineTest, CompatibleAnswersBatchInOnePump) {
  Load();
  std::vector<std::string> responses;
  for (uint64_t session = 1; session <= 3; ++session) {
    engine_.Submit(session, AnswerLine("Ans(x) <- R(x)"),
                   [&](const std::string& line) { responses.push_back(line); });
  }
  EXPECT_TRUE(responses.empty());
  // One batch: the answer at the first session's front steals the
  // identical answers from the other sessions' fronts.
  EXPECT_TRUE(engine_.PumpOne());
  ASSERT_EQ(responses.size(), 3u);
  for (const std::string& line : responses) EXPECT_TRUE(IsOk(line)) << line;
  // Identical (query, domain) pairs are computed once and fanned out —
  // all three responses carry the same payload.
  EXPECT_EQ(responses[0], responses[1]);
  EXPECT_EQ(responses[1], responses[2]);
  EXPECT_FALSE(engine_.PumpOne());
}

TEST_F(ServeEngineTest, NonAnswerVerbsDoNotBatch) {
  Load();
  size_t delivered = 0;
  for (uint64_t session = 1; session <= 2; ++session) {
    engine_.Submit(session, "{\"verb\":\"check\"}",
                   [&](const std::string&) { ++delivered; });
  }
  EXPECT_TRUE(engine_.PumpOne());
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(engine_.PumpOne());
  EXPECT_EQ(delivered, 2u);
}

TEST_F(ServeEngineTest, SessionsAreServedRoundRobin) {
  Load();
  std::vector<std::string> order;
  const auto submit = [&](uint64_t session, const std::string& tag) {
    JsonObjectWriter writer;
    writer.String("verb", "check");
    writer.String("id", tag);
    engine_.Submit(session, writer.Finish(), [&order, tag](const std::string&) {
      order.push_back(tag);
    });
  };
  // Session 1 floods three requests before session 2's single one.
  submit(1, "a1");
  submit(1, "a2");
  submit(1, "a3");
  submit(2, "b1");
  while (engine_.PumpOne()) {
  }
  // Fair share: the flood cannot starve session 2 until the flood ends.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a1");
  EXPECT_EQ(order[1], "b1");
  EXPECT_EQ(order[2], "a2");
  EXPECT_EQ(order[3], "a3");
}

TEST_F(ServeEngineTest, AdmissionControlRejectsBeyondMaxQueue) {
  EngineOptions options = ManualOptions();
  options.max_queue = 1;
  Engine engine(options);
  ASSERT_TRUE(IsOk(engine.Call(0, LoadLine())));

  std::vector<std::string> responses;
  const auto record = [&](const std::string& line) {
    responses.push_back(line);
  };
  engine.Submit(1, "{\"verb\":\"check\"}", record);
  // Queue is at capacity: the second submit is rejected synchronously.
  engine.Submit(2, "{\"verb\":\"check\"}", record);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("admission queue full"), std::string::npos)
      << responses[0];
  while (engine.PumpOne()) {
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(IsOk(responses[1])) << responses[1];
}

TEST_F(ServeEngineTest, StatsReportsCachesAndCollections) {
  Load();
  ASSERT_TRUE(IsOk(engine_.Call(0, AnswerLine("Ans(x) <- R(x)"))));
  const std::string stats = engine_.Call(0, "{\"verb\":\"stats\"}");
  ASSERT_TRUE(IsOk(stats)) << stats;
  EXPECT_NE(stats.find("\"plan_cache\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"containment_cache\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"default\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"answer_cache\":"), std::string::npos) << stats;
}

TEST_F(ServeEngineTest, ShutdownDrainsAcceptedAndRejectsNew) {
  Load();
  size_t delivered = 0;
  engine_.Submit(1, "{\"verb\":\"check\"}",
                 [&](const std::string&) { ++delivered; });
  engine_.BeginShutdown();
  EXPECT_TRUE(engine_.draining());

  // Post-shutdown submissions are rejected synchronously...
  std::string rejected;
  engine_.Submit(2, "{\"verb\":\"check\"}",
                 [&](const std::string& line) { rejected = line; });
  EXPECT_NE(rejected.find("draining"), std::string::npos) << rejected;

  // ...but everything accepted beforehand still gets its response.
  engine_.Drain();
  EXPECT_EQ(delivered, 1u);
}

TEST_F(ServeEngineTest, ShutdownVerbTriggersDraining) {
  bool notified = false;
  engine_.SetShutdownNotify([&] { notified = true; });
  const std::string response = engine_.Call(0, "{\"verb\":\"shutdown\"}");
  EXPECT_TRUE(IsOk(response)) << response;
  EXPECT_NE(response.find("\"draining\":true"), std::string::npos) << response;
  EXPECT_TRUE(engine_.draining());
  EXPECT_TRUE(notified);
}

TEST_F(ServeEngineTest, LoadReplacesCollectionAndReportsReload) {
  Load();
  const std::string reloaded = engine_.Call(0, LoadLine());
  ASSERT_TRUE(IsOk(reloaded)) << reloaded;
  EXPECT_NE(reloaded.find("\"reloaded\":true"), std::string::npos) << reloaded;
}

TEST_F(ServeEngineTest, DeadlinePastTheClockRangeAnswersNormally) {
  // 9.3e12 ms is inside the protocol's 2^53 range but past the steady
  // clock's: the request runs as if it had no deadline.
  Load();
  JsonObjectWriter writer;
  writer.String("verb", "answer");
  writer.String("query", "Ans(x) <- R(x)");
  writer.Raw("domain",
             "[\"a\",\"b\",\"c\",\"d\",\"e\",\"f\",\"g\",\"h\"]");
  writer.Uint("deadline_ms", 9'300'000'000'000);
  const std::string answered = engine_.Call(0, writer.Finish());
  ASSERT_TRUE(IsOk(answered)) << answered;
  EXPECT_NE(answered.find("\"truncated\":false"), std::string::npos)
      << answered;
}

TEST_F(ServeEngineTest, ExplicitDomainIsHonored) {
  Load();
  JsonObjectWriter writer;
  writer.String("verb", "answer");
  writer.String("query", "Ans(x) <- R(x)");
  writer.Raw("domain", "[\"a\",\"b\",\"c\",\"d\"]");
  const std::string wide = engine_.Call(0, writer.Finish());
  ASSERT_TRUE(IsOk(wide)) << wide;
  const std::string defaulted = engine_.Call(0, AnswerLine("Ans(x) <- R(x)"));
  ASSERT_TRUE(IsOk(defaulted)) << defaulted;
  // Different domains are distinct cache keys and distinct computations.
  EXPECT_NE(wide.find("\"from_cache\":false"), std::string::npos) << wide;
}

}  // namespace
}  // namespace psc::serve
