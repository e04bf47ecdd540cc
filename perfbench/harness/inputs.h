#ifndef PSC_PERFBENCH_INPUTS_H_
#define PSC_PERFBENCH_INPUTS_H_

/// \file
/// Seeded input generation for the three workloads. Everything the program
/// under test receives is produced here as text (collection sources,
/// queries, delta scripts, protocol lines), so one seed gives
/// byte-identical inputs and `psc_perfbench --gen` can dump them.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "psc/consistency/hitting_set.h"
#include "psc/util/random.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// One source of a served collection, with a planted ground truth: the
/// generator knows φ(T) for a truth T and keeps T a possible world across
/// every write, so the collection never becomes inconsistent.
struct ServeSource {
  std::string name;
  std::string view;
  /// Head tuples the extension may hold, rendered as fact arguments.
  std::vector<std::string> candidates;
  /// Indices of candidates in φ(T).
  std::set<int> intended;
  /// Indices of candidates currently in the extension.
  std::set<int> extension;
  /// Claimed bounds, in quarters.
  int completeness_q = 0;
  int soundness_q = 0;

  /// Whether flipping candidate `index` keeps T possible and the extension
  /// nonempty.
  bool ToggleKeepsTruth(int index) const;
  std::string Text() const;
};

struct ServeCollection {
  std::string name;
  std::vector<ServeSource> sources;
  /// Explicit answer domain (the collection's constant pool).
  std::vector<std::string> domain;
  std::vector<std::string> queries;

  std::string Text() const;
  /// Picks a write that really changes one source (insert or retract one
  /// tuple) and keeps T possible, applies it to this model and returns the
  /// delta script.
  std::string NextWrite(psc::Rng* rng);
};

std::vector<ServeCollection> MakeServeCollections(uint64_t seed);

enum class RequestKind { kAnswer, kCheck, kWrite };

/// One scheduled request of the open-loop stream.
struct ServeRequest {
  RequestKind kind = RequestKind::kAnswer;
  size_t collection = 0;
  size_t query = 0;
  /// Delta script of a write (fixed at generation time).
  std::string script;
  /// Seconds after the start of its phase at which it is due.
  double due_s = 0;
  /// Connection that sends it. Every write of a collection goes through
  /// one connection, so they reach pscd in generation order.
  size_t connection = 0;
  size_t rung = 0;
};

/// Shares of the request mix.
constexpr double kWriteShare = 0.05;
constexpr double kCheckShare = 0.05;
constexpr size_t kConnections = 4;

/// Builds request streams — Poisson arrivals at a rate, or a burst of a
/// given count — mutating `collections` by every write it schedules.
/// Queries follow a Zipf-skewed pool.
class ServeStream {
 public:
  ServeStream(std::vector<ServeCollection>* collections, uint64_t seed);

  std::vector<ServeRequest> Poisson(double rate, double duration_s,
                                    size_t rung);
  std::vector<ServeRequest> Burst(size_t count, size_t rung);

 private:
  ServeRequest Next();

  std::vector<ServeCollection>* collections_;
  psc::Rng rng_;
  /// (collection, query) pairs in Zipf rank order, and cumulative weights.
  std::vector<std::pair<size_t, size_t>> pool_;
  std::vector<double> cumulative_;
};

std::string ProtocolLine(const std::vector<ServeCollection>& collections,
                         const ServeRequest& request, uint64_t id);

// ---------------------------------------------------------------------------
// oneshot_federation
// ---------------------------------------------------------------------------

enum class OneshotKind { kGhcn, kIdentityExact, kIdentityCompositional, kHsStar };
const char* OneshotKindName(OneshotKind kind);

struct OneshotRequest {
  OneshotKind kind = OneshotKind::kGhcn;
  std::string collection_text;
  /// Empty for check-only requests.
  std::string query;
  std::vector<std::string> domain;
  /// HS* requests: the source HITTING SET instance (for the verdict check).
  psc::HittingSetInstance hitting_set;
};

/// The request cycle: blocks of 10 with fixed kind shares in a seeded
/// order, each instance drawn from the seed.
std::vector<OneshotRequest> MakeOneshotRequests(uint64_t seed, size_t count);

// ---------------------------------------------------------------------------
// mc_fleet
// ---------------------------------------------------------------------------

struct FleetInput {
  std::string label;
  std::string collection_text;
  std::string query;
};

std::vector<FleetInput> MakeFleets(uint64_t seed);

/// Samples per Monte-Carlo operation.
constexpr uint64_t kMcSamples = 192;

/// Every generated input of `workload` for `seed`, as one text document.
std::string DumpInputs(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PSC_PERFBENCH_INPUTS_H_
