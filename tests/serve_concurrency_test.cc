// Concurrency tests for the resident engine: many client threads racing
// answers against apply-delta mutations and collection reloads, with
// background dispatchers and batch fan-out. Run under TSan in CI; the
// assertions here are about the contract (every request gets exactly one
// ok response; the final state is deterministic), the sanitizer checks
// the synchronization.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "psc/serve/engine.h"
#include "psc/serve/protocol.h"
#include "test_util.h"

namespace psc::serve {
namespace {

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

const char* kQueries[] = {
    "Ans(x) <- R(x)",
    "Ans(x, y) <- R(x), R(y)",
    "Ans(x) <- R(x), R(x)",
};

std::string LoadLine() {
  JsonObjectWriter writer;
  writer.String("verb", "load");
  writer.String("text", kCollectionText);
  return writer.Finish();
}

std::string AnswerLine(size_t query_index, const std::string& id = "") {
  JsonObjectWriter writer;
  writer.String("verb", "answer");
  if (!id.empty()) writer.String("id", id);
  writer.String("query", kQueries[query_index % 3]);
  return writer.Finish();
}

std::string DeltaLine(bool insert) {
  JsonObjectWriter writer;
  writer.String("verb", "apply-delta");
  writer.String("script", insert ? "+ S1(\"c\")" : "- S1(\"c\")");
  return writer.Finish();
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// A general-view collection whose combination 0 (every fact sound) does
/// not decide the freeze search: B pins R2 to {("a", 1)}, so only the
/// combinations that keep at most "a" sound yield a witness, the first of
/// them at index 57 of 64. Past combination 0 the search collects four
/// 16-combination blocks and fans them out on its pool.
constexpr const char* kFanOutCollectionText =
    "source A {\n"
    "  view: V(x) <- R2(x, y)\n"
    "  completeness: 0\n"
    "  soundness: 0\n"
    "  facts: V(\"a\"), V(\"b\"), V(\"c\"),\n"
    "         V(\"d\"), V(\"e\"), V(\"f\")\n"
    "}\n"
    "source B {\n"
    "  view: W(x, y) <- R2(x, y)\n"
    "  completeness: 1\n"
    "  soundness: 1\n"
    "  facts: W(\"a\", 1)\n"
    "}\n";

/// An answer over the default collection with `extra` constants beyond
/// its own in the domain, so requests differ by domain as well as query.
std::string DomainAnswerLine(size_t query_index, size_t extra) {
  std::string domain = "[\"a\",\"b\",\"c\"";
  for (size_t e = 0; e < extra; ++e) {
    domain += ",\"x" + std::to_string(e) + "\"";
  }
  domain += "]";
  JsonObjectWriter writer;
  writer.String("verb", "answer");
  writer.String("query", kQueries[query_index % 3]);
  writer.Raw("domain", domain);
  return writer.Finish();
}

/// The unsigned integer member `name` of a response; 0 when absent.
uint64_t UintMember(const std::string& response, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = response.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(response.c_str() + at + key.size(), nullptr, 10);
}

TEST(ServeConcurrencyTest, AnswersRaceDeltasAndReloads) {
  EngineOptions options;
  options.dispatch_threads = 2;
  options.solver_threads = 1;
  options.max_batch = 8;
  Engine engine(options);
  ASSERT_TRUE(IsOk(engine.Call(0, LoadLine())));

  constexpr size_t kClientThreads = 6;
  constexpr size_t kRequestsPerClient = 25;
  constexpr size_t kDeltaToggles = 20;  // even: ends back at the base state
  constexpr size_t kReloads = 5;

  std::atomic<size_t> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads + 2);
  for (size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::string response =
            engine.Call(/*session=*/c + 1, AnswerLine(c + r));
        if (!IsOk(response)) failures.fetch_add(1);
      }
    });
  }
  // One mutator toggling a tuple in and out: every answer above races a
  // cache invalidation, and an even toggle count restores the base state.
  clients.emplace_back([&] {
    for (size_t t = 0; t < kDeltaToggles; ++t) {
      const std::string response =
          engine.Call(/*session=*/100, DeltaLine(t % 2 == 0));
      if (!IsOk(response)) failures.fetch_add(1);
    }
  });
  // One reloader replacing the resident system outright: dispatchers
  // executing against the old instance must keep it alive (shared
  // ownership), never read freed memory.
  clients.emplace_back([&] {
    for (size_t r = 0; r < kReloads; ++r) {
      const std::string response = engine.Call(/*session=*/101, LoadLine());
      if (!IsOk(response)) failures.fetch_add(1);
    }
  });
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0u);

  // Deterministic endpoint: the reload restored the base collection and
  // the toggles cancelled out, so the warm engine's final answers must be
  // byte-identical to a fresh engine's — warm-state reuse never changes
  // results, only cost.
  EngineOptions fresh_options;
  fresh_options.dispatch_threads = 0;
  fresh_options.solver_threads = 1;
  Engine fresh(fresh_options);
  ASSERT_TRUE(IsOk(fresh.Call(0, LoadLine())));
  const auto payload = [](const std::string& response) {
    const size_t at = response.find("\"worlds_used\"");
    return at == std::string::npos ? response : response.substr(at);
  };
  for (size_t q = 0; q < 3; ++q) {
    const std::string warm = engine.Call(0, AnswerLine(q, "x"));
    const std::string cold = fresh.Call(0, AnswerLine(q, "x"));
    ASSERT_TRUE(IsOk(warm)) << warm;
    ASSERT_TRUE(IsOk(cold)) << cold;
    EXPECT_EQ(payload(warm), payload(cold));
  }

  engine.BeginShutdown();
  engine.Drain();
}

TEST(ServeConcurrencyTest, AnswerBatchesShareThePoolWithCheckFanOuts) {
  // The engine fans answer batches out on the SharedPool of the default
  // thread count, resolved at construction; PSC_THREADS=4 makes that
  // SharedPool(4), the pool every check's freeze search (solver_threads
  // = 4) fans out on too.
  const char* const env = std::getenv("PSC_THREADS");
  const std::string saved_env = env == nullptr ? "" : env;
  setenv("PSC_THREADS", "4", /*overwrite=*/1);
  EngineOptions options;
  options.dispatch_threads = 2;
  options.solver_threads = 4;
  options.max_batch = 8;
  // Shared with the runner thread, which outlives the test if it hangs.
  auto engine = std::make_shared<Engine>(options);
  if (env == nullptr) {
    unsetenv("PSC_THREADS");
  } else {
    setenv("PSC_THREADS", saved_env.c_str(), /*overwrite=*/1);
  }
  ASSERT_TRUE(IsOk(engine->Call(0, LoadLine())));

  constexpr size_t kClientThreads = 4;
  constexpr size_t kRequestsPerClient = 20;
  constexpr size_t kDomains = 3;
  constexpr size_t kChecks = 10;
  auto failures = std::make_shared<std::atomic<size_t>>(0);
  auto unfanned = std::make_shared<std::atomic<size_t>>(0);
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread runner([engine, failures, unfanned, done] {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&, c] {
        for (size_t r = 0; r < kRequestsPerClient; ++r) {
          const size_t k = c + r;
          const std::string response = engine->Call(
              /*session=*/c + 1, DomainAnswerLine(k, k / 3 % kDomains));
          if (!IsOk(response)) failures->fetch_add(1);
        }
      });
    }
    // A check answered from the resident report would not search, so a
    // fresh load comes before each one.
    clients.emplace_back([&] {
      JsonObjectWriter load;
      load.String("verb", "load");
      load.String("collection", "fanout");
      load.String("text", kFanOutCollectionText);
      const std::string load_line = load.Finish();
      JsonObjectWriter check;
      check.String("verb", "check");
      check.String("collection", "fanout");
      const std::string check_line = check.Finish();
      for (size_t k = 0; k < kChecks; ++k) {
        if (!IsOk(engine->Call(/*session=*/100, load_line))) {
          failures->fetch_add(1);
        }
        const std::string response = engine->Call(/*session=*/100, check_line);
        if (!IsOk(response) ||
            response.find("\"verdict\":\"CONSISTENT\"") == std::string::npos) {
          failures->fetch_add(1);
        }
        // Combinations 1-17 fill more than one 16-combination block, so
        // a search that tried them ran a pooled loop.
        if (UintMember(response, "combinations_tried") <= 17) {
          unfanned->fetch_add(1);
        }
      }
    });
    for (std::thread& client : clients) client.join();
    done->set_value();
  });
  if (finished.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // Deadlocked: fail instead of hanging. The runner keeps the engine
    // alive, so nothing waits for the stuck dispatchers.
    runner.detach();
    FAIL() << "requests did not finish in 30 s";
  }
  runner.join();
  EXPECT_EQ(failures->load(), 0u);
  EXPECT_EQ(unfanned->load(), 0u);

  // The same answers as a manual-pump engine's.
  EngineOptions manual_options;
  manual_options.dispatch_threads = 0;
  manual_options.solver_threads = 1;
  Engine manual(manual_options);
  ASSERT_TRUE(IsOk(manual.Call(0, LoadLine())));
  const auto payload = [](const std::string& response) {
    const size_t at = response.find("\"worlds_used\"");
    return at == std::string::npos ? response : response.substr(at);
  };
  for (size_t q = 0; q < 3; ++q) {
    for (size_t d = 0; d < kDomains; ++d) {
      const std::string shared = engine->Call(0, DomainAnswerLine(q, d));
      const std::string pumped = manual.Call(0, DomainAnswerLine(q, d));
      ASSERT_TRUE(IsOk(shared)) << shared;
      ASSERT_TRUE(IsOk(pumped)) << pumped;
      EXPECT_EQ(payload(shared), payload(pumped)) << q << " " << d;
    }
  }

  engine->BeginShutdown();
  engine->Drain();
}

TEST(ServeConcurrencyTest, ConcurrentSubmitsAllAnswerUnderShutdown) {
  EngineOptions options;
  options.dispatch_threads = 2;
  options.solver_threads = 1;
  Engine engine(options);
  ASSERT_TRUE(IsOk(engine.Call(0, LoadLine())));

  // Fire-and-forget submissions from several threads while shutdown races
  // in: every submission must get exactly one callback, whether it was
  // accepted (answered during the drain) or rejected at admission.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 20;
  std::atomic<size_t> callbacks{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t r = 0; r < kPerThread; ++r) {
        engine.Submit(t + 1, AnswerLine(r),
                      [&](const std::string&) { callbacks.fetch_add(1); });
      }
    });
  }
  engine.BeginShutdown();
  for (std::thread& thread : submitters) thread.join();
  engine.Drain();
  EXPECT_EQ(callbacks.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace psc::serve
