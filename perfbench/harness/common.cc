#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "psc/algebra/plan_compiler.h"
#include "psc/consistency/general_consistency.h"
#include "psc/counting/confidence.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/json.h"
#include "psc/tableau/template_builder.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int32_t Tracer::Open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<int64_t> Tracer::Durations(const std::string& name) const {
  std::vector<int64_t> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) out.push_back(span.end_ns - span.start_ns);
  }
  return out;
}

double Tracer::MedianMs(const std::string& name) const {
  std::vector<double> ms;
  for (const int64_t ns : Durations(name)) ms.push_back(NsToMs(ns));
  return Median(std::move(ms));
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& span : spans_) {
    out << Json()
               .Str("name", span.name)
               .Num("start_us", NsToUs(span.start_ns - origin))
               .Num("end_us", NsToUs(span.end_ns - origin))
               .Int("parent", span.parent)
               .Int("request", span.request)
               .Finish()
        << "\n";
  }
  return static_cast<bool>(out);
}

std::string Tracer::SelfTimeJson(int64_t* negative_self) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  struct Totals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  *negative_self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t self = duration - child_ns[i];
    if (self < 0) ++*negative_self;
    Totals& totals = by_name[span.name];
    ++totals.calls;
    totals.total_ns += duration;
    totals.self_ns += self;
  }
  Json json;
  for (const auto& [name, totals] : by_name) {
    json.Raw(name, Json()
                       .Int("calls", static_cast<int64_t>(totals.calls))
                       .Num("total_ms", NsToMs(totals.total_ns))
                       .Num("self_ms", NsToMs(totals.self_ns))
                       .Finish());
  }
  return json.Finish();
}

std::string Json::Quote(const std::string& text) {
  return "\"" + psc::obs::JsonEscape(text) + "\"";
}

std::string Json::Number(double value) {
  if (!std::isfinite(value)) return "null";  // run.py rejects null metrics
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string Json::Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

std::string Json::StringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(values[i]);
  }
  return out + "]";
}

Json& Json::Raw(const std::string& key, const std::string& raw) {
  if (!body_.empty()) body_ += ",";
  body_ += Quote(key) + ":" + raw;
  return *this;
}

Json& Json::Num(const std::string& key, double value) {
  return Raw(key, Number(value));
}

Json& Json::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, Quote(value));
}

Json& Json::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string RunResult::ToJson() const {
  Json samples_json;
  for (const auto& [name, values] : samples) {
    samples_json.Raw(name, Json::Array(values));
  }
  Json reasons;
  for (const auto& [reason, count] : fail_reasons) {
    reasons.Int(reason, static_cast<int64_t>(count));
  }
  Json layers_json;
  for (const auto& [name, value] : layers) layers_json.Num(name, value);
  return Json()
      .Raw("samples", samples_json.Finish())
      .Raw("setup_s", Json::Array(setup_s))
      .Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Raw("fail_reasons", reasons.Finish())
      .Raw("errors", Json::StringArray(errors))
      .Num("ops_per_s", ops_per_s)
      .Num("peak_rss_mb", peak_rss_mb)
      .Raw("layers", layers_json.Finish())
      .Raw("extra", extra.Finish())
      .Finish();
}

void SetLayerTimes(const Tracer& tracer, RunResult* result) {
  struct LayerTime {
    const char* metric;
    const char* span;
    double per_ms;  // 1 for a metric in ms, 1000 for one in us
  };
  static const LayerTime kLayerTimes[] = {
      {"parser.collection_ms", "parser.collection", 1},
      {"parser.query_us", "parser.query", 1000},
      {"serve.request_parse_us", "serve.request_parse", 1000},
      {"serve.engine_answer_us", "serve.engine_answer", 1000},
      {"core.check_ms", "core.check", 1},
      {"core.answer_exact_ms", "core.answer_exact", 1},
      {"core.answer_mc_ms", "core.answer_mc", 1},
      {"consistency.check_ms", "consistency.check", 1},
      {"tableau.combinations_ms", "tableau.combinations", 1},
      {"relational.possible_world_ms", "relational.possible_world", 1},
      {"relational.eval_us", "relational.eval", 1000},
      {"counting.sampler_build_ms", "counting.sampler_build", 1},
      {"counting.sample_us", "counting.sample", 1000},
      {"counting.enumerate_ms", "counting.enumerate", 1},
      {"counting.base_conf_ms", "counting.base_conf", 1},
      {"algebra.eval_in_world_us", "algebra.eval_in_world", 1000},
      {"algebra.eval_confidence_us", "algebra.eval_confidence", 1000},
      {"exec.pool_us", "exec.pool", 1000}};
  for (const LayerTime& layer : kLayerTimes) {
    if (!tracer.Durations(layer.span).empty()) {
      result->layers.emplace(layer.metric,
                             tracer.MedianMs(layer.span) * layer.per_ms);
    }
  }
}

size_t ResolvedThreads() { return psc::exec::ResolveThreadCount(0); }

void TimePool(Tracer* tracer) {
  const Span span(tracer, "exec.pool");
  const psc::exec::ThreadPool pool(ResolvedThreads());
}

void ProbeCounts::Report(RunResult* result) const {
  if (checks > 0) {
    result->layers["consistency.combinations_tried"] = combinations / checks;
    result->layers["consistency.candidates_checked"] = candidates / checks;
    result->layers["consistency.unknown_frac"] = unknown / checks;
  }
  if (enumerations > 0) result->layers["counting.worlds"] = worlds / enumerations;
  if (samplers > 0) result->layers["counting.shapes"] = shapes / samplers;
}

void ProbeLayers(const ProbeInput& input, Tracer* tracer, ProbeCounts* counts,
                 RunResult* result) {
  constexpr int kDraws = 16;
  const psc::SourceCollection& collection = *input.collection;
  psc::Result<psc::ConsistencyReport> report;
  {
    const Span span(tracer, "consistency.check");
    report = psc::GeneralConsistencyChecker().Check(collection);
  }
  if (!report.ok()) return result->Error("consistency probe failed");
  counts->checks += 1;
  counts->combinations += static_cast<double>(report->combinations_tried);
  counts->candidates += static_cast<double>(report->candidates_checked);
  counts->unknown += report->verdict == psc::ConsistencyVerdict::kUnknown ? 1 : 0;
  if (!collection.AllIdentityViews()) {
    const Span span(tracer, "tableau.combinations");
    psc::TemplateBuilder builder(&collection);
    uint64_t left = std::max<uint64_t>(1, report->combinations_tried);
    (void)builder.ForEachAllowableCombination(
        [&](const psc::Combination& combination) {
          (void)builder.BuildTableau(combination);
          return --left > 0;
        });
  }

  std::optional<psc::Database> world = report->witness;
  psc::Result<psc::ConfidenceTable> table = psc::Status::NotFound("no table");
  std::string relation;
  size_t arity = 0;
  if (collection.AllIdentityViews()) {
    auto instance = psc::IdentityInstance::Create(collection, input.domain);
    if (instance.ok()) {
      relation = instance->relation();
      arity = instance->arity();
      {
        const Span span(tracer, "counting.base_conf");
        table = psc::ComputeBaseFactConfidences(*instance);
      }
      if (input.enumerate) {
        uint64_t worlds = 0;
        {
          const Span span(tracer, "counting.enumerate");
          psc::IdentityWorldEnumerator enumerator(&*instance);
          (void)enumerator.ForEachWorld([&](const psc::Database&) {
            ++worlds;
            return true;
          });
        }
        counts->enumerations += 1;
        counts->worlds += static_cast<double>(worlds);
      }
      if (input.sample) {
        psc::Result<psc::WorldSampler> sampler;
        {
          const Span span(tracer, "counting.sampler_build");
          sampler = psc::WorldSampler::Create(&*instance);
        }
        if (sampler.ok()) {
          counts->samplers += 1;
          counts->shapes += static_cast<double>(sampler->num_shapes());
          psc::Rng rng(input.seed);
          for (int draw = 0; draw < kDraws; ++draw) {
            const Span span(tracer, "counting.sample");
            world = sampler->Sample(&rng);
          }
        }
      }
    }
  }

  if (world.has_value()) {
    {
      const Span span(tracer, "relational.possible_world");
      auto possible = collection.IsPossibleWorld(*world);
      if (!possible.ok() || !*possible) {
        result->Error("IsPossibleWorld rejected a probed world");
      }
    }
    if (input.query != nullptr) {
      const Span span(tracer, "relational.eval");
      (void)input.query->Evaluate(*world);
    } else {
      for (const psc::SourceDescriptor& source : collection.sources()) {
        const Span span(tracer, "relational.eval");
        (void)source.view().Evaluate(*world);
      }
    }
  }
  if (input.query != nullptr) {
    auto plan = psc::CompileQuery(*input.query);
    if (plan.ok() && world.has_value()) {
      const Span span(tracer, "algebra.eval_in_world");
      (void)(*plan)->EvalInWorld(*world);
    }
    if (plan.ok() && table.ok() && input.eval_confidence) {
      psc::ProbRelation base(arity);
      for (const psc::TupleConfidence& entry : table->entries) {
        (void)base.Insert(entry.tuple, entry.confidence);
      }
      std::map<std::string, psc::ProbRelation> relations;
      relations.emplace(relation, std::move(base));
      const Span span(tracer, "algebra.eval_confidence");
      (void)(*plan)->EvalConfidence(relations);
    }
  }
  TimePool(tracer);
}

}  // namespace perfbench
