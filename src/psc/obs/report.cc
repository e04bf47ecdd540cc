#include "psc/obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>

#include "psc/util/string_util.h"

namespace psc {
namespace obs {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string HistogramJson(const HistogramSnapshot& snapshot) {
  return StrCat("{\"count\":", snapshot.count, ",\"sum\":", snapshot.sum,
                ",\"min\":", snapshot.min, ",\"max\":", snapshot.max,
                ",\"mean\":", FormatDouble(snapshot.Mean()), ",\"p50\":",
                FormatDouble(snapshot.PercentileInterpolated(0.5)),
                ",\"p90\":",
                FormatDouble(snapshot.PercentileInterpolated(0.9)),
                ",\"p95\":",
                FormatDouble(snapshot.PercentileInterpolated(0.95)),
                ",\"p99\":",
                FormatDouble(snapshot.PercentileInterpolated(0.99)), "}");
}

std::string SpanJson(const SpanRecord& span) {
  return StrCat("{\"id\":", span.id, ",\"parent\":", span.parent_id,
                ",\"name\":\"", JsonEscape(span.name),
                "\",\"depth\":", span.depth, ",\"start_us\":", span.start_us,
                ",\"duration_us\":", span.duration_us, ",\"tid\":", span.tid,
                ",\"scope\":", span.scope_id, "}");
}

}  // namespace

RunReport RunReport::Capture() {
  RunReport report;
  for (auto& [name, value] : GlobalMetrics().CounterValues()) {
    report.counters.push_back(CounterEntry{name, value});
  }
  for (auto& [name, value] : GlobalMetrics().GaugeValues()) {
    report.gauges.push_back(GaugeEntry{name, value});
  }
  for (auto& [name, snapshot] : GlobalMetrics().HistogramValues()) {
    report.histograms.push_back(HistogramEntry{name, std::move(snapshot)});
  }
  report.spans = GlobalTrace().Snapshot();
  report.spans_dropped = GlobalTrace().dropped();
  // Surface the drop count where counter-based alerting looks for it.
  // Synthesized at capture (not a registry counter) so it cannot drift
  // from spans_dropped; keep the counters sorted by name.
  const bool have_trace_dropped =
      std::any_of(report.counters.begin(), report.counters.end(),
                  [](const CounterEntry& entry) {
                    return entry.name == "trace.dropped";
                  });
  if (!have_trace_dropped) {
    report.counters.push_back(
        CounterEntry{"trace.dropped", report.spans_dropped});
    std::sort(report.counters.begin(), report.counters.end(),
              [](const CounterEntry& a, const CounterEntry& b) {
                return a.name < b.name;
              });
  }
  report.queries = CaptureScopeSnapshots();
  return report;
}

std::string RunReport::ToJson() const {
  std::string out = StrCat("{\"schema_version\":", kRunReportSchemaVersion,
                           ",\"counters\":{");
  for (size_t i = 0; i < counters.size(); ++i) {
    out += StrCat(i == 0 ? "" : ",", "\"", JsonEscape(counters[i].name),
                  "\":", counters[i].value);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += StrCat(i == 0 ? "" : ",", "\"", JsonEscape(gauges[i].name),
                  "\":", gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    out += StrCat(i == 0 ? "" : ",", "\"", JsonEscape(histograms[i].name),
                  "\":", HistogramJson(histograms[i].snapshot));
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    out += StrCat(i == 0 ? "" : ",", SpanJson(spans[i]));
  }
  out += StrCat("],\"spans_dropped\":", spans_dropped, ",\"queries\":{");
  // Query names come from callers (CLI command names today, request ids
  // under pscd); duplicates are legal, so disambiguate the JSON keys with
  // the process-unique scope id.
  std::set<std::string> used_names;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ScopeSnapshot& query = queries[i];
    std::string key = query.name;
    if (!used_names.insert(key).second) {
      key = StrCat(query.name, "#", query.id);
      used_names.insert(key);
    }
    out += StrCat(i == 0 ? "" : ",", "\"", JsonEscape(key),
                  "\":{\"id\":", query.id, ",\"counters\":{");
    for (size_t j = 0; j < query.counters.size(); ++j) {
      out += StrCat(j == 0 ? "" : ",", "\"",
                    JsonEscape(query.counters[j].first),
                    "\":", query.counters[j].second);
    }
    out += "},\"gauges\":{";
    for (size_t j = 0; j < query.gauges.size(); ++j) {
      out += StrCat(j == 0 ? "" : ",", "\"",
                    JsonEscape(query.gauges[j].first),
                    "\":", query.gauges[j].second);
    }
    out += "},\"histograms\":{";
    for (size_t j = 0; j < query.histograms.size(); ++j) {
      out += StrCat(j == 0 ? "" : ",", "\"",
                    JsonEscape(query.histograms[j].first),
                    "\":", HistogramJson(query.histograms[j].second));
    }
    out += StrCat("},\"spans\":", query.spans.size(),
                  ",\"spans_dropped\":", query.spans_dropped, ",\"trip\":\"",
                  JsonEscape(query.trip_reason), "\"}");
  }
  out += "}}";
  return out;
}

std::string RunReport::ToTable() const {
  size_t width = 4;  // "name"
  for (const CounterEntry& entry : counters) {
    width = std::max(width, entry.name.size());
  }
  for (const GaugeEntry& entry : gauges) {
    width = std::max(width, entry.name.size());
  }
  for (const HistogramEntry& entry : histograms) {
    width = std::max(width, entry.name.size());
  }
  const auto pad = [&](const std::string& name) {
    return name + std::string(width - name.size() + 2, ' ');
  };
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const CounterEntry& entry : counters) {
      out += StrCat("  ", pad(entry.name), entry.value, "\n");
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeEntry& entry : gauges) {
      out += StrCat("  ", pad(entry.name), entry.value, "\n");
    }
  }
  if (!histograms.empty()) {
    out += "histograms (us):\n";
    for (const HistogramEntry& entry : histograms) {
      const HistogramSnapshot& s = entry.snapshot;
      out += StrCat("  ", pad(entry.name), "count=", s.count,
                    " sum=", s.sum, " min=", s.min, " max=", s.max,
                    " mean=", FormatDouble(s.Mean()),
                    " p90=", s.Percentile(0.9), "\n");
    }
  }
  if (!queries.empty()) {
    out += "queries:\n";
    for (const ScopeSnapshot& query : queries) {
      out += StrCat("  ", query.name, "  spans=", query.spans.size());
      for (const auto& [name, value] : query.counters) {
        if (name == "consistency.nodes_expanded" || name == "eval.probes") {
          out += StrCat(" ", name, "=", value);
        }
      }
      if (!query.trip_reason.empty()) {
        out += StrCat(" trip=", query.trip_reason);
      }
      out += "\n";
    }
  }
  if (!spans.empty()) {
    out += StrCat("spans (", spans.size(), " buffered, ", spans_dropped,
                  " dropped):\n", FormatSpanTree(spans));
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

Status RunReport::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::NotFound(StrCat("cannot open '", path, "' for writing"));
  }
  out << ToJson() << "\n";
  out.flush();
  if (!out) return Status::Internal(StrCat("short write to '", path, "'"));
  return Status::OK();
}

namespace {

Status Expect(bool condition, const std::string& message) {
  if (condition) return Status::OK();
  return Status::InvalidArgument(StrCat("run report: ", message));
}

Status ValidateNonNegativeNumber(const JsonValue& value,
                                 const std::string& what) {
  PSC_RETURN_NOT_OK(Expect(value.is_number(), StrCat(what, " not numeric")));
  return Expect(value.number() >= 0.0, StrCat(what, " negative"));
}

}  // namespace

namespace {

Status ValidateHistogramObject(const std::string& name,
                               const JsonValue& value) {
  PSC_RETURN_NOT_OK(Expect(
      value.is_object(), StrCat("histogram '", name, "' not an object")));
  for (const char* field :
       {"count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99"}) {
    const JsonValue* member = value.Find(field);
    PSC_RETURN_NOT_OK(Expect(
        member != nullptr,
        StrCat("histogram '", name, "' missing field '", field, "'")));
    PSC_RETURN_NOT_OK(ValidateNonNegativeNumber(
        *member, StrCat("histogram '", name, "' field '", field, "'")));
  }
  const double count = value.Find("count")->number();
  const double sum = value.Find("sum")->number();
  const double min = value.Find("min")->number();
  const double max = value.Find("max")->number();
  PSC_RETURN_NOT_OK(Expect(
      count > 0 || sum == 0,
      StrCat("histogram '", name, "' has sum without samples")));
  PSC_RETURN_NOT_OK(
      Expect(min <= max, StrCat("histogram '", name, "' has min > max")));
  return Status::OK();
}

/// The counters/gauges/histograms triple appears at the top level and
/// inside every query section; `where` labels errors.
Status ValidateInstrumentSections(const JsonValue& object,
                                  const std::string& where) {
  const JsonValue* counters = object.Find("counters");
  PSC_RETURN_NOT_OK(Expect(counters != nullptr && counters->is_object(),
                           StrCat(where, "missing counters object")));
  for (const auto& [name, value] : counters->object()) {
    PSC_RETURN_NOT_OK(ValidateNonNegativeNumber(
        value, StrCat(where, "counter '", name, "'")));
  }

  const JsonValue* gauges = object.Find("gauges");
  PSC_RETURN_NOT_OK(Expect(gauges != nullptr && gauges->is_object(),
                           StrCat(where, "missing gauges object")));
  for (const auto& [name, value] : gauges->object()) {
    PSC_RETURN_NOT_OK(Expect(
        value.is_number(), StrCat(where, "gauge '", name, "' not numeric")));
  }

  const JsonValue* histograms = object.Find("histograms");
  PSC_RETURN_NOT_OK(Expect(histograms != nullptr && histograms->is_object(),
                           StrCat(where, "missing histograms object")));
  for (const auto& [name, value] : histograms->object()) {
    PSC_RETURN_NOT_OK(ValidateHistogramObject(StrCat(where, name), value));
  }
  return Status::OK();
}

}  // namespace

Status ValidateRunReportJson(const JsonValue& document) {
  PSC_RETURN_NOT_OK(Expect(document.is_object(), "document not an object"));

  const JsonValue* version_value = document.Find("schema_version");
  PSC_RETURN_NOT_OK(
      Expect(version_value != nullptr && version_value->is_number(),
             "missing numeric schema_version"));
  PSC_RETURN_NOT_OK(
      Expect(version_value->number() == kRunReportSchemaVersion,
             StrCat("unsupported schema_version ", version_value->number())));

  PSC_RETURN_NOT_OK(ValidateInstrumentSections(document, ""));

  const JsonValue* spans = document.Find("spans");
  PSC_RETURN_NOT_OK(
      Expect(spans != nullptr && spans->is_array(), "missing spans array"));
  std::set<int64_t> span_ids;
  for (const JsonValue& span : spans->array()) {
    PSC_RETURN_NOT_OK(Expect(span.is_object(), "span not an object"));
    const JsonValue* id = span.Find("id");
    PSC_RETURN_NOT_OK(Expect(id != nullptr && id->is_number(),
                             "span missing numeric id"));
    span_ids.insert(static_cast<int64_t>(id->number()));
    const JsonValue* name = span.Find("name");
    PSC_RETURN_NOT_OK(Expect(name != nullptr && name->is_string(),
                             "span missing name string"));
    for (const char* field :
         {"parent", "depth", "start_us", "duration_us", "tid", "scope"}) {
      const JsonValue* member = span.Find(field);
      PSC_RETURN_NOT_OK(Expect(member != nullptr && member->is_number(),
                               StrCat("span missing field '", field, "'")));
    }
  }
  const JsonValue* dropped = document.Find("spans_dropped");
  PSC_RETURN_NOT_OK(Expect(dropped != nullptr && dropped->is_number(),
                           "missing numeric spans_dropped"));
  // Parent links are only guaranteed complete when nothing was dropped
  // (parents complete after their children, so a full buffer can retain a
  // child while dropping its parent).
  if (dropped->number() == 0) {
    for (const JsonValue& span : spans->array()) {
      const int64_t parent =
          static_cast<int64_t>(span.Find("parent")->number());
      PSC_RETURN_NOT_OK(Expect(
          parent == -1 || span_ids.count(parent) > 0,
          StrCat("span parent ", parent, " not present in the report")));
    }
  }

  const JsonValue* queries = document.Find("queries");
  PSC_RETURN_NOT_OK(Expect(queries != nullptr && queries->is_object(),
                           "missing queries object"));
  for (const auto& [name, query] : queries->object()) {
    const std::string where = StrCat("query '", name, "' ");
    PSC_RETURN_NOT_OK(
        Expect(query.is_object(), StrCat(where, "not an object")));
    const JsonValue* id = query.Find("id");
    PSC_RETURN_NOT_OK(Expect(id != nullptr && id->is_number(),
                             StrCat(where, "missing numeric id")));
    PSC_RETURN_NOT_OK(ValidateInstrumentSections(query, where));
    for (const char* field : {"spans", "spans_dropped"}) {
      const JsonValue* member = query.Find(field);
      PSC_RETURN_NOT_OK(Expect(member != nullptr,
                               StrCat(where, "missing field '", field, "'")));
      PSC_RETURN_NOT_OK(ValidateNonNegativeNumber(
          *member, StrCat(where, "field '", field, "'")));
    }
    const JsonValue* trip = query.Find("trip");
    PSC_RETURN_NOT_OK(Expect(trip != nullptr && trip->is_string(),
                             StrCat(where, "missing trip string")));
  }
  return Status::OK();
}

Status ValidateRunReportJson(const std::string& json_text) {
  PSC_ASSIGN_OR_RETURN(const JsonValue document, ParseJson(json_text));
  return ValidateRunReportJson(document);
}

}  // namespace obs
}  // namespace psc
