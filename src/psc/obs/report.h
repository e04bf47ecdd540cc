#ifndef PSC_OBS_REPORT_H_
#define PSC_OBS_REPORT_H_

/// \file
/// Structured run reports: a point-in-time snapshot of the global metrics
/// registry plus the trace-span buffer, serializable as machine-readable
/// JSON (see `kRunReportSchemaVersion` / README "Observability") and as an
/// aligned human-readable table.

#include <cstdint>
#include <string>
#include <vector>

#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/scope.h"
#include "psc/obs/trace.h"
#include "psc/util/status.h"

namespace psc {
namespace obs {

/// Bumped whenever the JSON layout changes incompatibly.
///
/// v2 (this version): interpolated p50/p90/p95/p99 on histograms, span
/// records carry `tid` and `scope`, a synthetic `trace.dropped` counter,
/// and a per-query `queries` section built from the alive obs::Scopes.
/// `tools/check_metrics_schema.py` validates reports and accepts this
/// version only.
inline constexpr int kRunReportSchemaVersion = 2;

struct RunReport {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot snapshot;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
  std::vector<SpanRecord> spans;
  uint64_t spans_dropped = 0;
  /// One entry per alive obs::Scope at capture time (creation order):
  /// the query's metric delta, span count and any limits trip.
  std::vector<ScopeSnapshot> queries;

  /// Snapshots `GlobalMetrics()`, `GlobalTrace()` and every alive
  /// obs::Scope; surfaces the trace drop count as a synthetic
  /// `trace.dropped` counter so threshold alerts need only one section.
  static RunReport Capture();

  /// Machine-readable serialization:
  /// {"schema_version":2, "counters":{...}, "gauges":{...},
  ///  "histograms":{name:{count,sum,min,max,mean,p50,p90,p95,p99}},
  ///  "spans":[{id,parent,name,depth,start_us,duration_us,tid,scope}],
  ///  "spans_dropped":N,
  ///  "queries":{name:{id,counters,gauges,histograms,spans,
  ///                   spans_dropped,trip}}}
  /// Percentiles are interpolated from the log2 buckets
  /// (HistogramSnapshot::PercentileInterpolated) and serialized as
  /// doubles. Duplicate query names are disambiguated as "name#id".
  std::string ToJson() const;

  /// Aligned text table for terminals, one section per instrument kind,
  /// followed by the span tree when spans were buffered.
  std::string ToTable() const;

  Status WriteJsonFile(const std::string& path) const;
};

}  // namespace obs
}  // namespace psc

#endif  // PSC_OBS_REPORT_H_
