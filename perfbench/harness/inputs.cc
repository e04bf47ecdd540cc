#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "psc/workload/cache_workload.h"
#include "psc/workload/ghcn.h"
#include "psc/workload/random_collections.h"

namespace perfbench {

namespace {

std::string Quarter(int quarters) {
  static const char* kText[] = {"0", "0.25", "0.5", "0.75", "1"};
  return kText[std::clamp(quarters, 0, 4)];
}

std::string Head(const std::string& view) {
  return view.substr(0, view.find('('));
}

int Intersection(const std::set<int>& a, const std::set<int>& b) {
  int count = 0;
  for (const int x : a) count += b.count(x) > 0 ? 1 : 0;
  return count;
}

/// A source over `candidates` whose extension holds `extension`, with the
/// claimed bounds rounded down to quarters of its true measures against
/// `intended`, less `slack` quarters — so the truth stays possible, and
/// the slack leaves it company.
ServeSource MakeSource(const std::string& name, const std::string& view,
                       std::vector<std::string> candidates,
                       std::set<int> intended, std::set<int> extension,
                       int slack) {
  ServeSource source;
  source.name = name;
  source.view = view;
  source.candidates = std::move(candidates);
  source.intended = std::move(intended);
  source.extension = std::move(extension);
  const int sound = Intersection(source.extension, source.intended);
  source.completeness_q =
      source.intended.empty()
          ? 4
          : 4 * sound / static_cast<int>(source.intended.size()) - slack;
  source.soundness_q =
      4 * sound / static_cast<int>(source.extension.size()) - slack;
  source.completeness_q = std::max(0, source.completeness_q);
  source.soundness_q = std::max(0, source.soundness_q);
  return source;
}

std::set<int> RandomSubset(psc::Rng* rng, int n, int k) {
  std::set<int> out;
  for (const int64_t i : rng->SampleWithoutReplacement(n, k)) {
    out.insert(static_cast<int>(i));
  }
  return out;
}

/// An extension of `size` candidates: about three quarters drawn from the
/// intended set, the rest false, and at least one true fact.
std::set<int> NoisyExtension(psc::Rng* rng, int n, const std::set<int>& truth,
                             int size) {
  std::vector<int> true_ids(truth.begin(), truth.end());
  std::vector<int> false_ids;
  for (int i = 0; i < n; ++i) {
    if (truth.count(i) == 0) false_ids.push_back(i);
  }
  rng->Shuffle(&true_ids);
  rng->Shuffle(&false_ids);
  std::set<int> out;
  const int want_true = std::max(1, (3 * size + 3) / 4);
  for (int i = 0; i < want_true && i < static_cast<int>(true_ids.size()); ++i) {
    out.insert(true_ids[static_cast<size_t>(i)]);
  }
  for (size_t i = 0; static_cast<int>(out.size()) < size && i < false_ids.size();
       ++i) {
    out.insert(false_ids[i]);
  }
  return out;
}

std::vector<std::string> Constants(const std::string& prefix, int n,
                                   bool quoted) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const std::string name = prefix + std::to_string(i);
    out.push_back(quoted ? "\"" + name + "\"" : name);
  }
  return out;
}

/// Sizes of a planted identity collection: the universe, the truth and the
/// first source's extension (source s holds `extension + s` facts).
struct IdentitySizes {
  int universe;
  int truth;
  int extension;
};

/// Dense sizes: the truth is 3/5 of the universe, extensions half of it.
IdentitySizes Dense(int universe) {
  return {universe, std::max(2, 3 * universe / 5), std::max(2, universe / 2)};
}

/// Identity sources over one unary relation with a planted truth. Sizes
/// are fixed, so the seed only chooses elements and the cost of answering
/// varies little from seed to seed; `slack` (see MakeSource) sets how many
/// worlds keep the truth company.
std::vector<ServeSource> PlantedIdentitySources(
    psc::Rng* rng, const std::string& relation, const std::string& prefix,
    const IdentitySizes& sizes, int num_sources,
    const std::string& source_prefix, int slack) {
  const int universe = sizes.universe;
  const std::vector<std::string> candidates =
      Constants(prefix, universe, /*quoted=*/prefix != "");
  const std::set<int> truth = RandomSubset(rng, universe, sizes.truth);
  std::vector<ServeSource> sources;
  for (int s = 0; s < num_sources; ++s) {
    const int size = std::min(universe, sizes.extension + s);
    const std::string name = source_prefix + std::to_string(s + 1);
    sources.push_back(MakeSource(name, name + "(x) <- " + relation + "(x)",
                                 candidates, truth,
                                 NoisyExtension(rng, universe, truth, size),
                                 slack));
  }
  return sources;
}

ServeCollection IdentityCollection(psc::Rng* rng, const std::string& name) {
  ServeCollection collection;
  collection.name = name;
  collection.sources = PlantedIdentitySources(rng, "R", "u", Dense(10), 3, "S", 1);
  collection.domain = Constants("u", 10, false);
  collection.queries = {"Ans(x) <- R(x)", "Ans(x) <- R(x), R(\"u0\")",
                        "Ans(x) <- R(\"u1\"), R(x)"};
  return collection;
}

/// Two relation groups (R and Q) in one collection: a write to one group
/// leaves the other group's cached answers valid.
ServeCollection TwoGroupCollection(psc::Rng* rng, const std::string& name) {
  ServeCollection collection;
  collection.name = name;
  collection.sources =
      PlantedIdentitySources(rng, "R", "m", Dense(5), 2, "A", 1);
  for (ServeSource& source :
       PlantedIdentitySources(rng, "Q", "m", Dense(5), 2, "B", 1)) {
    collection.sources.push_back(std::move(source));
  }
  collection.domain = Constants("m", 5, false);
  collection.queries = {"Ans(x) <- R(x)", "Ans(x) <- Q(x)",
                        "Ans(x) <- R(x), Q(x)"};
  return collection;
}

/// A projection view and an identity view over a binary relation P: the
/// general (non-identity) consistency and brute-force answering paths.
/// W1 claims no completeness, so the frozen tableau of the truth's own
/// combination is always a witness and canonical freezing never has to
/// fall back to an exhaustive search it cannot afford (UNKNOWN).
ServeCollection ProjectionCollection(psc::Rng* rng, const std::string& name) {
  constexpr int kDomain = 3;
  std::vector<std::string> constants = Constants("p", kDomain, true);
  std::vector<std::string> pairs;
  std::vector<std::pair<int, int>> pair_ids;
  for (int x = 0; x < kDomain; ++x) {
    for (int y = 0; y < kDomain; ++y) {
      pairs.push_back(constants[static_cast<size_t>(x)] + ", " +
                      constants[static_cast<size_t>(y)]);
      pair_ids.emplace_back(x, y);
    }
  }
  const std::set<int> truth = RandomSubset(
      rng, kDomain * kDomain, static_cast<int>(rng->UniformInt(3, 5)));
  std::set<int> firsts;
  for (const int p : truth) firsts.insert(pair_ids[static_cast<size_t>(p)].first);
  ServeCollection collection;
  collection.name = name;
  collection.sources.push_back(
      MakeSource("V1", "V1(x) <- P(x, y)", constants, firsts,
                 NoisyExtension(rng, kDomain, firsts, 2), /*slack=*/0));
  collection.sources.push_back(
      MakeSource("W1", "W1(x, y) <- P(x, y)", pairs, truth,
                 NoisyExtension(rng, kDomain * kDomain, truth, 4),
                 /*slack=*/0));
  collection.sources.back().completeness_q = 0;
  collection.domain = Constants("p", kDomain, false);
  collection.queries = {"Ans(x) <- P(x, y)", "Ans(x, y) <- P(x, y)",
                        "Ans(y) <- P(\"p0\", y)"};
  return collection;
}

}  // namespace

bool ServeSource::ToggleKeepsTruth(int index) const {
  std::set<int> next = extension;
  if (!next.erase(index)) next.insert(index);
  if (next.empty()) return false;
  const int sound = Intersection(next, intended);
  return 4 * sound >= completeness_q * static_cast<int>(intended.size()) &&
         4 * sound >= soundness_q * static_cast<int>(next.size());
}

std::string ServeSource::Text() const {
  std::string facts;
  for (const int i : extension) {
    if (!facts.empty()) facts += ", ";
    facts += Head(view) + "(" + candidates[static_cast<size_t>(i)] + ")";
  }
  return "source " + name + " {\n  view: " + view +
         "\n  completeness: " + Quarter(completeness_q) +
         "\n  soundness: " + Quarter(soundness_q) + "\n  facts: " + facts +
         "\n}\n";
}

std::string ServeCollection::Text() const {
  std::string text;
  for (const ServeSource& source : sources) text += source.Text();
  return text;
}

std::string ServeCollection::NextWrite(psc::Rng* rng) {
  std::vector<std::pair<size_t, int>> options;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (int i = 0; i < static_cast<int>(sources[s].candidates.size()); ++i) {
      if (sources[s].ToggleKeepsTruth(i)) options.emplace_back(s, i);
    }
  }
  if (options.empty()) return "";
  const auto [s, i] = options[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
  ServeSource& source = sources[s];
  const bool insert = source.extension.count(i) == 0;
  if (insert) {
    source.extension.insert(i);
  } else {
    source.extension.erase(i);
  }
  return std::string(insert ? "+ " : "- ") + source.name + "(" +
         source.candidates[static_cast<size_t>(i)] + ")";
}

std::vector<ServeCollection> MakeServeCollections(uint64_t seed) {
  psc::Rng rng(psc::MixSeed(seed, 101));
  std::vector<ServeCollection> collections;
  collections.push_back(IdentityCollection(&rng, "id0"));
  collections.push_back(IdentityCollection(&rng, "id1"));
  collections.push_back(TwoGroupCollection(&rng, "groups"));
  collections.push_back(ProjectionCollection(&rng, "proj"));
  return collections;
}

ServeStream::ServeStream(std::vector<ServeCollection>* collections,
                         uint64_t seed)
    : collections_(collections), rng_(psc::MixSeed(seed, 102)) {
  // A fixed rank order, query-major, so every collection has a hot query
  // and the seed does not decide which collection's misses dominate.
  for (size_t q = 0; q < (*collections)[0].queries.size(); ++q) {
    for (size_t c = 0; c < collections->size(); ++c) {
      if (q < (*collections)[c].queries.size()) pool_.emplace_back(c, q);
    }
  }
  double total = 0;
  for (size_t rank = 0; rank < pool_.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

ServeRequest ServeStream::Next() {
  ServeRequest request;
  const double u = rng_.UniformDouble();
  const int64_t last = static_cast<int64_t>(collections_->size()) - 1;
  if (u < kWriteShare) {
    const size_t first = static_cast<size_t>(rng_.UniformInt(0, last));
    for (size_t k = 0; k < collections_->size(); ++k) {
      const size_t c = (first + k) % collections_->size();
      std::string script = (*collections_)[c].NextWrite(&rng_);
      if (script.empty()) continue;  // no toggle keeps this truth possible
      request.kind = RequestKind::kWrite;
      request.collection = c;
      request.script = std::move(script);
      request.connection = c % kConnections;
      return request;
    }
  }
  request.connection = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(kConnections) - 1));
  if (u < kWriteShare + kCheckShare) {
    request.kind = RequestKind::kCheck;
    request.collection = static_cast<size_t>(rng_.UniformInt(0, last));
    return request;
  }
  const double pick = rng_.UniformDouble();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cumulative_.begin(), cumulative_.end(), pick) -
      cumulative_.begin());
  const auto [c, q] = pool_[std::min(rank, pool_.size() - 1)];
  request.kind = RequestKind::kAnswer;
  request.collection = c;
  request.query = q;
  return request;
}

std::vector<ServeRequest> ServeStream::Poisson(double rate, double duration_s,
                                               size_t rung) {
  std::vector<ServeRequest> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng_.UniformDouble()) / rate;
    if (t >= duration_s) break;
    ServeRequest request = Next();
    request.due_s = t;
    request.rung = rung;
    out.push_back(std::move(request));
  }
  return out;
}

std::vector<ServeRequest> ServeStream::Burst(size_t count, size_t rung) {
  std::vector<ServeRequest> out;
  for (size_t i = 0; i < count; ++i) {
    ServeRequest request = Next();
    request.rung = rung;
    out.push_back(std::move(request));
  }
  return out;
}

std::string ProtocolLine(const std::vector<ServeCollection>& collections,
                         const ServeRequest& request, uint64_t id) {
  const ServeCollection& collection = collections[request.collection];
  Json json;
  json.Int("id", static_cast<int64_t>(id));
  json.Str("collection", collection.name);
  switch (request.kind) {
    case RequestKind::kAnswer:
      json.Str("verb", "answer");
      json.Str("query", collection.queries[request.query]);
      json.Raw("domain", Json::StringArray(collection.domain));
      break;
    case RequestKind::kCheck:
      json.Str("verb", "check");
      break;
    case RequestKind::kWrite:
      json.Str("verb", "apply-delta");
      json.Str("script", request.script);
      break;
  }
  return json.Finish();
}

// ---------------------------------------------------------------------------

const char* OneshotKindName(OneshotKind kind) {
  switch (kind) {
    case OneshotKind::kGhcn:
      return "ghcn";
    case OneshotKind::kIdentityExact:
      return "identity_exact";
    case OneshotKind::kIdentityCompositional:
      return "identity_compositional";
    case OneshotKind::kHsStar:
      return "hs_star";
  }
  return "?";
}

namespace {

std::string GhcnFederationText(uint64_t seed, int64_t stations,
                               int64_t num_sources, double coverage) {
  psc::GhcnConfig config;
  config.num_stations = stations;
  config.start_year = 1990;
  config.end_year = 1991;
  psc::GhcnGenerator generator(config, seed);
  const psc::GhcnWorld world = generator.GenerateTruth();
  std::vector<psc::SourceDescriptor> sources;
  auto catalog = generator.MakeCatalogSource(world, "S0");
  if (!catalog.ok()) return "";
  sources.push_back(std::move(*catalog));
  const std::vector<std::string> countries = {"Canada", "US", "Mexico"};
  for (int64_t i = 0; i < num_sources; ++i) {
    auto source = generator.MakeCountrySource(
        world, "S" + std::to_string(i + 1),
        countries[static_cast<size_t>(i) % countries.size()],
        /*after_year=*/1900, coverage, /*error_rate=*/0.1);
    if (!source.ok()) return "";
    sources.push_back(std::move(*source));
  }
  auto collection = psc::SourceCollection::Create(std::move(sources));
  return collection.ok() ? collection->ToString() : "";
}

}  // namespace

std::vector<OneshotRequest> MakeOneshotRequests(uint64_t seed, size_t count) {
  // Kind shares per block of 10: checks sort as HS* (30%) < identity-exact
  // (50%) < compositional (10%) < GHCN (10%), and answers as identity-exact
  // (5/6) < compositional (1/6), so each median falls inside one kind. The
  // seed shuffles the kinds within each block, sizes cycle through fixed
  // strata and the seed draws the instances.
  using K = OneshotKind;
  static const OneshotKind kBlock[] = {
      K::kGhcn,          K::kIdentityExact, K::kHsStar,
      K::kIdentityExact, K::kIdentityExact, K::kHsStar,
      K::kIdentityCompositional, K::kIdentityExact, K::kHsStar,
      K::kIdentityExact};
  struct Federation {
    int64_t stations;
    int64_t sources;
  };
  static const Federation kFederations[] = {{6, 2}, {8, 3}, {10, 3}, {12, 4}};
  const IdentitySizes kExact = Dense(11);
  // Exact answering enumerates every world, so its universe stays small;
  // compositional answering counts shapes, which a sparse universe of 160
  // keeps to milliseconds and dense ones of 48 and 64 to tens of them.
  const IdentitySizes kCompositional[] = {Dense(48), Dense(64), {160, 12, 8}};
  constexpr size_t kBlockLength = sizeof(kBlock) / sizeof(kBlock[0]);
  std::vector<OneshotKind> kinds;
  for (size_t first = 0; first < count; first += kBlockLength) {
    std::vector<OneshotKind> block(std::begin(kBlock), std::end(kBlock));
    psc::Rng rng(psc::MixSeed(seed, 3000 + first));
    rng.Shuffle(&block);
    kinds.insert(kinds.end(), block.begin(), block.end());
  }
  std::vector<OneshotRequest> out;
  size_t ghcn = 0;
  size_t compositional = 0;
  for (size_t i = 0; i < count; ++i) {
    psc::Rng rng(psc::MixSeed(seed, 1000 + i));
    OneshotRequest request;
    request.kind = kinds[i];
    switch (request.kind) {
      case OneshotKind::kGhcn: {
        const Federation& federation = kFederations[ghcn++ % 4];
        request.collection_text =
            GhcnFederationText(psc::MixSeed(seed, 2000 + i),
                               federation.stations, federation.sources, 0.75);
        break;
      }
      case OneshotKind::kIdentityExact:
      case OneshotKind::kIdentityCompositional: {
        const bool exact = request.kind == OneshotKind::kIdentityExact;
        const IdentitySizes& sizes =
            exact ? kExact : kCompositional[compositional++ % 3];
        ServeCollection collection;
        // Compositional answers count shapes over the whole universe:
        // without slack they stay in the tens of milliseconds.
        collection.sources = PlantedIdentitySources(
            &rng, "R", "", sizes, 3, "S", exact ? 1 : 0);
        request.collection_text = collection.Text();
        request.query = "Ans(x) <- R(x)";
        request.domain = Constants("", sizes.universe, false);
        break;
      }
      case OneshotKind::kHsStar: {
        request.hitting_set = psc::MakeRandomHittingSet(
            rng.UniformInt(8, 12), rng.UniformInt(5, 9), 3,
            rng.UniformInt(2, 3), &rng);
        auto collection = psc::ReduceHsStarToConsistency(
            psc::ReduceHsToHsStar(request.hitting_set));
        request.collection_text = collection.ok() ? collection->ToString() : "";
        break;
      }
    }
    out.push_back(std::move(request));
  }
  return out;
}

// ---------------------------------------------------------------------------

std::vector<FleetInput> MakeFleets(uint64_t seed) {
  // Fixed strata; the seed only picks which objects each cache holds. Five
  // fleets whose check and Monte-Carlo costs both rank them in the order
  // listed, so the median and p95 of a run each fall inside one fleet's
  // distribution. Feasible shapes span about 10^2 to 10^4 (the 3-cache
  // fleet has 4-8 * 10^3, varying with the seed).
  struct Shape {
    int64_t objects;
    int64_t caches;
    double coverage;
    double staleness;
  };
  static const Shape kShapes[] = {{80, 3, 0.8, 0.1},
                                  {250, 2, 0.9, 0.04},
                                  {500, 2, 0.95, 0.02},
                                  {750, 2, 0.95, 0.02},
                                  {1000, 2, 0.97, 0.01}};
  std::vector<FleetInput> out;
  for (size_t i = 0; i < sizeof(kShapes) / sizeof(kShapes[0]); ++i) {
    psc::CacheConfig config;
    config.num_objects = kShapes[i].objects;
    config.num_caches = kShapes[i].caches;
    config.coverage = kShapes[i].coverage;
    config.staleness = kShapes[i].staleness;
    config.seed = psc::MixSeed(seed, 4000 + i);
    auto workload = psc::MakeCacheWorkload(config);
    FleetInput fleet;
    fleet.label = std::to_string(config.num_caches) + "x" +
                  std::to_string(config.num_objects);
    fleet.collection_text = workload.ok() ? workload->collection.ToString() : "";
    fleet.query = "Ans(x) <- Object(x)";
    out.push_back(std::move(fleet));
  }
  return out;
}

std::string DumpInputs(const std::string& workload, uint64_t seed) {
  std::string out;
  if (workload == "serve_mix") {
    std::vector<ServeCollection> collections = MakeServeCollections(seed);
    for (const ServeCollection& collection : collections) {
      out += "# collection " + collection.name + "\n" + collection.Text();
    }
    ServeStream stream(&collections, seed);
    uint64_t id = 0;
    for (const ServeRequest& request : stream.Poisson(200, 5, 0)) {
      out += Json::Number(request.due_s) + " " +
             std::to_string(request.connection) + " " +
             ProtocolLine(collections, request, ++id) + "\n";
    }
  } else if (workload == "oneshot_federation") {
    for (const OneshotRequest& request : MakeOneshotRequests(seed, 12)) {
      out += std::string("# ") + OneshotKindName(request.kind) + " " +
             request.query + "\n" + request.collection_text + "\n";
    }
  } else if (workload == "mc_fleet") {
    for (const FleetInput& fleet : MakeFleets(seed)) {
      out += "# fleet " + fleet.label + "\n" + fleet.collection_text + "\n";
    }
  }
  return out;
}

}  // namespace perfbench
