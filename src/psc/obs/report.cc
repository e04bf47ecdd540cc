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

}  // namespace obs
}  // namespace psc
